// Package shards is the scale-out benchmark suite behind -serve-shards:
// it measures how session throughput scales with the shard count on the
// virtual clock, and how a forked arena's resident shadow footprint
// tracks the pages its tenant actually dirties. The committed artifact is
// BENCH_shards.json.
//
// It lives outside package bench because it drives the real service
// layer (service imports bench for its sanitizer-label registry, so
// bench cannot import service back).
//
// Methodology. Wall-clock scaling on a CI box says more about the box
// than the code, so the suite bills every session on the deterministic
// virtual clock (the same bench.VirtualCost model the service charges
// deadlines on) and measures makespan: route the session batch through a
// real ShardSet, then take the slowest shard's summed virtual bill.
// One shard's makespan is the whole batch run back to back; N shards'
// makespan is the critical path of the consistent-hash placement. The
// speedup column is therefore a statement about routing balance — the
// only thing sharding itself controls — and is byte-identical across
// machines and runs. Run also re-checks the determinism contract while
// it is at it: every session must produce the identical status, virtual
// bill, checksum and stats at every shard count, or the run fails.
package shards

import (
	"fmt"

	"giantsan/internal/instrument"
	"giantsan/internal/interp"
	"giantsan/internal/rt"
	"giantsan/internal/service"
	"giantsan/internal/shadow"
	"giantsan/internal/texttable"
	"giantsan/internal/workload"
)

// DefaultTenants is the tenant population the scaling side routes. Large
// enough that consistent-hash placement noise averages out, small enough
// to keep the suite in smoke-test territory.
const DefaultTenants = 96

// MinSpeedup is the CI gate's floor: the virtual-clock makespan speedup
// Check demands of the highest shard count.
const MinSpeedup = 3.0

// scalingWorkloads is the session mix, reused round-robin across the
// tenant population: the same four kernels the tiers suite bills, so
// every protection mode carries weight in the per-shard load.
func scalingWorkloads() []string {
	return []string{"505.mcf_r", "523.xalancbmk_r", "519.lbm_r", "557.xz_r"}
}

// ScalingRow is one shard count's measurement.
type ScalingRow struct {
	Shards   int `json:"shards"`
	Sessions int `json:"sessions"`
	// TotalVirtualNs is the summed virtual bill of every session —
	// identical at every shard count (sharding moves work, never changes
	// it; Run enforces this).
	TotalVirtualNs int64 `json:"totalVirtualNs"`
	// MakespanNs is the slowest shard's summed virtual bill: the batch's
	// virtual completion time with every shard draining in parallel.
	MakespanNs int64 `json:"makespanNs"`
	// Speedup is row-1's makespan over this row's (1.0 for one shard).
	Speedup float64 `json:"speedup"`
	// SessionsPerShard is the placement histogram.
	SessionsPerShard []int `json:"sessionsPerShard"`
}

// ResidencyRow records one forked arena's shadow footprint after running
// a session, against the New arena (every page private) it replaces.
type ResidencyRow struct {
	Workload string `json:"workload"`
	// HeapBytes is the arena size the tenant was given (the workload
	// touches the same amount regardless, so growing it shows residency
	// tracking use, not capacity).
	HeapBytes uint64 `json:"heapBytes"`
	// DirtyPages and ResidentBytes are Env.OverlayStats after the run:
	// privatized 4 KiB shadow pages and their bytes.
	DirtyPages    int `json:"dirtyPages"`
	ResidentBytes int `json:"residentBytes"`
	// DenseShadowBytes is what a New arena privatizes up front.
	DenseShadowBytes int `json:"denseShadowBytes"`
	// ResidentShare is ResidentBytes / DenseShadowBytes.
	ResidentShare float64 `json:"residentShare"`
	// PostResetPages is DirtyPages after Env.Reset: the overlay-drop
	// reset path must return the fork to zero resident shadow.
	PostResetPages int `json:"postResetPages"`
}

// Report is the BENCH_shards.json payload.
type Report struct {
	Tenants   int            `json:"tenants"`
	Workloads []string       `json:"workloads"`
	Scaling   []ScalingRow   `json:"scaling"`
	Residency []ResidencyRow `json:"residency"`
}

type outcome struct {
	status    string
	virtualNs int64
	checksum  string
	errors    int
}

// Run measures virtual-clock makespan at each shard count (counts[0] is
// the speedup baseline, conventionally 1) and the forked-arena residency
// table. tenants <= 0 means DefaultTenants.
func Run(counts []int, tenants int) (*Report, error) {
	if len(counts) == 0 {
		counts = []int{1, 2, 4}
	}
	if tenants <= 0 {
		tenants = DefaultTenants
	}
	rep := &Report{Tenants: tenants, Workloads: scalingWorkloads()}

	reqs := make([]service.Request, tenants)
	for i := range reqs {
		reqs[i] = service.Request{
			Workload:  rep.Workloads[i%len(rep.Workloads)],
			Sanitizer: "giantsan",
			Tenant:    fmt.Sprintf("tenant-%d", i),
		}
	}

	var baseline []outcome
	for ri, n := range counts {
		set := service.NewShardSet(n, service.Config{Workers: 1, QueueDepth: tenants})
		row := ScalingRow{Shards: set.NumShards(), Sessions: tenants,
			SessionsPerShard: make([]int, set.NumShards())}
		perShard := make([]int64, set.NumShards())
		outs := make([]outcome, tenants)
		for i, req := range reqs {
			resp, err := set.Submit(req)
			if err != nil {
				set.Close()
				return nil, fmt.Errorf("shards=%d tenant-%d: %w", n, i, err)
			}
			if resp.Status != service.StatusOK {
				set.Close()
				return nil, fmt.Errorf("shards=%d tenant-%d: status %s (%s)", n, i, resp.Status, resp.Message)
			}
			row.TotalVirtualNs += resp.VirtualNs
			perShard[resp.Shard] += resp.VirtualNs
			row.SessionsPerShard[resp.Shard]++
			outs[i] = outcome{resp.Status, resp.VirtualNs, resp.Checksum, resp.ErrorTotal}
		}
		set.Close()
		for _, ns := range perShard {
			if ns > row.MakespanNs {
				row.MakespanNs = ns
			}
		}
		// The determinism contract: shard placement must be the only
		// thing that changed since the baseline count.
		if ri == 0 {
			baseline = outs
		} else {
			for i, o := range outs {
				if o != baseline[i] {
					return nil, fmt.Errorf("shards=%d tenant-%d diverges from shards=%d: %+v vs %+v",
						n, i, counts[0], o, baseline[i])
				}
			}
		}
		if ri == 0 {
			row.Speedup = 1
		} else {
			row.Speedup = float64(rep.Scaling[0].MakespanNs) / float64(row.MakespanNs)
		}
		rep.Scaling = append(rep.Scaling, row)
	}

	res, err := residency()
	if err != nil {
		return nil, err
	}
	rep.Residency = res
	return rep, nil
}

// residency runs one session per (workload, arena size) on a freshly
// forked arena and records its overlay footprint. Growing the arena with
// the workload fixed is the point: a New arena's shadow cost scales
// with capacity, a fork's with use.
func residency() ([]ResidencyRow, error) {
	var rows []ResidencyRow
	for _, id := range []string{"505.mcf_r", "557.xz_r"} {
		w := workload.ByID(id)
		if w == nil {
			return nil, fmt.Errorf("shards: unknown residency workload %q", id)
		}
		for _, heap := range []uint64{w.HeapBytes, 64 << 20, 256 << 20} {
			if heap < w.HeapBytes {
				continue
			}
			env := rt.Fork(rt.Config{Kind: rt.GiantSan, HeapBytes: heap})
			ex, err := interp.Prepare(w.Build(1), instrument.GiantSanProfile, env)
			if err != nil {
				return nil, fmt.Errorf("shards: residency %s: %w", id, err)
			}
			res := ex.Run()
			if res.Errors.Total() != 0 {
				return nil, fmt.Errorf("shards: residency %s: clean workload reported %d errors", id, res.Errors.Total())
			}
			pages, bytes := env.OverlayStats()
			dense := env.ShadowBytes()
			row := ResidencyRow{
				Workload:         id,
				HeapBytes:        heap,
				DirtyPages:       pages,
				ResidentBytes:    bytes,
				DenseShadowBytes: dense,
				ResidentShare:    float64(bytes) / float64(dense),
			}
			env.Reset()
			row.PostResetPages, _ = env.OverlayStats()
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Check is the CI gate over a report: near-linear scaling (the highest
// shard count must reach minSpeedup), work conservation across shard
// counts, and residency's proportionality invariants — resident bytes
// exactly PageBytes per dirtied page, strictly below a New arena's cost, and
// zero after Reset.
func Check(rep *Report, minSpeedup float64) error {
	if len(rep.Scaling) < 2 {
		return fmt.Errorf("shards: scaling has %d rows, want >= 2", len(rep.Scaling))
	}
	total := rep.Scaling[0].TotalVirtualNs
	for _, row := range rep.Scaling {
		if row.TotalVirtualNs != total {
			return fmt.Errorf("shards: total virtual ns drifts across shard counts: %d at %d shards vs %d at %d",
				row.TotalVirtualNs, row.Shards, total, rep.Scaling[0].Shards)
		}
	}
	last := rep.Scaling[len(rep.Scaling)-1]
	if last.Speedup < minSpeedup {
		return fmt.Errorf("shards: %d shards reached %.2fx, want >= %.2fx", last.Shards, last.Speedup, minSpeedup)
	}
	if len(rep.Residency) == 0 {
		return fmt.Errorf("shards: residency table is empty")
	}
	for _, r := range rep.Residency {
		if r.ResidentBytes != r.DirtyPages*shadow.PageBytes {
			return fmt.Errorf("shards: %s @ %d MiB: resident %d bytes != %d dirty pages x %d",
				r.Workload, r.HeapBytes>>20, r.ResidentBytes, r.DirtyPages, shadow.PageBytes)
		}
		if r.ResidentBytes >= r.DenseShadowBytes {
			return fmt.Errorf("shards: %s @ %d MiB: resident %d bytes not below dense %d",
				r.Workload, r.HeapBytes>>20, r.ResidentBytes, r.DenseShadowBytes)
		}
		if r.PostResetPages != 0 {
			return fmt.Errorf("shards: %s @ %d MiB: %d overlay pages survive Reset",
				r.Workload, r.HeapBytes>>20, r.PostResetPages)
		}
	}
	return nil
}

// Render renders the report as tables.
func Render(rep *Report) string {
	tb := texttable.New("Shards", "Sessions", "Makespan", "Speedup", "Placement")
	for _, r := range rep.Scaling {
		tb.Add(fmt.Sprintf("%d", r.Shards), fmt.Sprintf("%d", r.Sessions),
			fmt.Sprintf("%dns", r.MakespanNs), fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%v", r.SessionsPerShard))
	}
	rt := texttable.New("Workload", "Heap", "DirtyPages", "Resident", "Dense", "Share", "PostReset")
	for _, r := range rep.Residency {
		rt.Add(r.Workload, fmt.Sprintf("%dMiB", r.HeapBytes>>20),
			fmt.Sprintf("%d", r.DirtyPages),
			fmt.Sprintf("%dB", r.ResidentBytes), fmt.Sprintf("%dB", r.DenseShadowBytes),
			fmt.Sprintf("%.4f", r.ResidentShare), fmt.Sprintf("%d", r.PostResetPages))
	}
	return tb.String() + "\n" + rt.String()
}
