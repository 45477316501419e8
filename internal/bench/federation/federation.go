// Package federation is the multi-process scale-out benchmark behind
// `gsan -serve -federate`: it measures how routed batch makespan scales
// with the backend-process count, what latency the proxy hop adds per
// session, and what fraction of the tenant population a backend failure
// remaps. The committed artifact is BENCH_federation.json.
//
// Methodology. The suite stands up real backend processes in miniature —
// each an httptest server wrapping a one-worker engine (NewServer over
// New), the handler `gsan -serve -serve-workers 1` runs — and routes a
// multi-tenant session batch through a real RemoteBackend front-end.
// Scaling is measured on the deterministic virtual clock: every session's
// bill is machine-independent, and makespan is the slowest backend's
// summed bill, a backend being the unit that drains sessions in parallel.
// The speedup column is therefore a statement about the consistent-hash
// placement of tenants onto backends, and is byte-identical across
// machines. The proxy's added latency (front-end wall minus the backend's
// own wall) is wall-clock and reported, never gated.
//
// The failover table reruns the batch at the highest backend count after
// killing one backend and letting the health sweep eject it: zero
// sessions may fail, tenants on surviving backends must keep their
// placement exactly, and the remapped fraction must be about 1/N — the
// consistent-hash contract, observed end to end through live routing.
package federation

import (
	"fmt"
	"net/http/httptest"
	"time"

	"giantsan/internal/service"
	"giantsan/internal/texttable"
)

// DefaultTenants is the routed tenant population: large enough that
// consistent-hash placement noise averages out, small enough to keep the
// suite in smoke-test territory.
const DefaultTenants = 96

// MinSpeedup2 and MinSpeedup4 are the CI gate's floors: the routed-batch
// makespan speedups Check demands at two and at four backends.
const (
	MinSpeedup2 = 1.8
	MinSpeedup4 = 3.0
)

// workloads is the session mix, reused round-robin across tenants: the
// same four kernels the tiers suite bills.
func workloads() []string {
	return []string{"505.mcf_r", "523.xalancbmk_r", "519.lbm_r", "557.xz_r"}
}

// ScalingRow is one backend count's measurement.
type ScalingRow struct {
	Backends int `json:"backends"`
	Sessions int `json:"sessions"`
	// TotalVirtualNs is the summed virtual bill of every session —
	// identical at every backend count (routing moves work, never changes
	// it; Run enforces this).
	TotalVirtualNs int64 `json:"totalVirtualNs"`
	// MakespanNs is the slowest backend's summed virtual bill: the batch's
	// virtual completion time with every backend draining in parallel.
	MakespanNs int64 `json:"makespanNs"`
	// Speedup is row-1's makespan over this row's (1.0 for one backend).
	Speedup float64 `json:"speedup"`
	// SessionsPerBackend is the placement histogram over backends.
	SessionsPerBackend []int `json:"sessionsPerBackend"`
	// ProxyMeanOverheadNs is the mean per-session wall time the proxy hop
	// added (front-end observed wall minus the backend's reported wall):
	// JSON marshalling, the HTTP round trip, and routing. Wall-clock, so
	// machine-dependent — reported for inspection, never gated.
	ProxyMeanOverheadNs int64 `json:"proxyMeanOverheadNs"`
}

// FailoverRow records the kill-one-backend rerun at the highest backend
// count.
type FailoverRow struct {
	Backends int    `json:"backends"`
	Killed   string `json:"killed"`
	Sessions int    `json:"sessions"`
	// SessionsLost counts submissions that errored after the ejection —
	// the contract is zero: the health sweep re-rings before traffic hits
	// the corpse.
	SessionsLost int `json:"sessionsLost"`
	// PriorOnKilled is how many sessions the killed backend served before
	// the kill; Remapped must equal it (only its tenants move).
	PriorOnKilled int `json:"priorOnKilled"`
	// Remapped counts sessions that changed backends; Stayed counts
	// sessions that kept their placement.
	Remapped int `json:"remapped"`
	Stayed   int `json:"stayed"`
	// RemapFraction is Remapped / Sessions, expected ~1/Backends.
	RemapFraction float64 `json:"remapFraction"`
}

// Report is the BENCH_federation.json payload.
type Report struct {
	Tenants   int          `json:"tenants"`
	Workloads []string     `json:"workloads"`
	Scaling   []ScalingRow `json:"scaling"`
	Failover  *FailoverRow `json:"failover,omitempty"`
}

type outcome struct {
	status    string
	virtualNs int64
	checksum  string
	errors    int
}

// cluster is one benchmark deployment: n live backend servers and the
// front-end routing to them.
type cluster struct {
	engines []*service.Engine
	servers []*httptest.Server
	rb      *service.RemoteBackend
}

func startCluster(n, tenants int) (*cluster, error) {
	c := &cluster{}
	members := make([]service.BackendMember, n)
	for i := 0; i < n; i++ {
		eng := service.New(service.Config{Workers: 1, QueueDepth: tenants})
		srv := httptest.NewServer(service.NewServer(eng))
		c.engines = append(c.engines, eng)
		c.servers = append(c.servers, srv)
		// Stable names decouple ring placement from the ephemeral httptest
		// ports, so placement is identical across runs and machines. The
		// names are part of the committed artifact: they feed the ring, so
		// renaming them re-rolls the placement histogram.
		members[i] = service.BackendMember{Name: fmt.Sprintf("proc-%d", i), URL: srv.URL}
	}
	rb, err := service.NewRemoteBackend(service.FederationConfig{
		Members: members,
		// The suite drives membership transitions itself via CheckHealth;
		// a long interval keeps the background sweep out of the way.
		HealthInterval: time.Hour,
		HealthTimeout:  5 * time.Second,
		ConnectTimeout: 5 * time.Second,
		RequestTimeout: 5 * time.Minute,
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.rb = rb
	return c, nil
}

func (c *cluster) close() {
	if c.rb != nil {
		c.rb.Close()
	}
	for _, srv := range c.servers {
		srv.Close()
	}
	for _, eng := range c.engines {
		eng.Close()
	}
}

// Run measures routed makespan at each backend count (counts[0] is the
// speedup baseline, conventionally 1) and the failover table at the
// highest count. tenants <= 0 means DefaultTenants.
func Run(counts []int, tenants int) (*Report, error) {
	if len(counts) == 0 {
		counts = []int{1, 2, 4}
	}
	if tenants <= 0 {
		tenants = DefaultTenants
	}
	rep := &Report{Tenants: tenants, Workloads: workloads()}

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
		c, err := startCluster(n, tenants)
		if err != nil {
			return nil, fmt.Errorf("federation: backends=%d: %w", n, err)
		}
		row := ScalingRow{Backends: n, Sessions: tenants, SessionsPerBackend: make([]int, n)}
		byBackend := make(map[string]int, n)
		for i := range c.servers {
			byBackend[fmt.Sprintf("proc-%d", i)] = i
		}
		perBackend := make([]int64, n) // summed bill per backend
		outs := make([]outcome, tenants)
		placement := make([]string, tenants)
		var overheadNs int64
		for i, req := range reqs {
			t0 := time.Now()
			resp, err := c.rb.Submit(req)
			if err != nil {
				c.close()
				return nil, fmt.Errorf("federation: backends=%d tenant-%d: %w", n, i, err)
			}
			if resp.Status != service.StatusOK {
				c.close()
				return nil, fmt.Errorf("federation: backends=%d tenant-%d: status %s (%s)", n, i, resp.Status, resp.Message)
			}
			if resp.Backend == "" {
				c.close()
				return nil, fmt.Errorf("federation: backends=%d tenant-%d: response carries no backend stamp", n, i)
			}
			bi, ok := byBackend[resp.Backend]
			if !ok {
				c.close()
				return nil, fmt.Errorf("federation: backends=%d tenant-%d: impossible placement %s", n, i, resp.Backend)
			}
			row.TotalVirtualNs += resp.VirtualNs
			row.SessionsPerBackend[bi]++
			perBackend[bi] += resp.VirtualNs
			overheadNs += time.Since(t0).Nanoseconds() - resp.WallNs
			outs[i] = outcome{resp.Status, resp.VirtualNs, resp.Checksum, resp.ErrorTotal}
			placement[i] = resp.Backend
		}
		for _, ns := range perBackend {
			if ns > row.MakespanNs {
				row.MakespanNs = ns
			}
		}
		row.ProxyMeanOverheadNs = overheadNs / int64(tenants)
		// The determinism contract: placement must be the only thing that
		// changed since the baseline count.
		if ri == 0 {
			baseline = outs
			row.Speedup = 1
		} else {
			for i, o := range outs {
				if o != baseline[i] {
					c.close()
					return nil, fmt.Errorf("federation: backends=%d tenant-%d diverges from backends=%d: %+v vs %+v",
						n, i, counts[0], o, baseline[i])
				}
			}
			row.Speedup = float64(rep.Scaling[0].MakespanNs) / float64(row.MakespanNs)
		}
		rep.Scaling = append(rep.Scaling, row)

		// Failover at the highest count: kill one backend, let the health
		// sweep eject it, rerun the batch through live routing.
		if ri == len(counts)-1 && n > 1 {
			fr, err := failover(c, reqs, placement)
			if err != nil {
				c.close()
				return nil, err
			}
			rep.Failover = fr
		}
		c.close()
	}
	return rep, nil
}

// failover kills backend-0, drives one health sweep, and reruns the batch:
// every session must still succeed, tenants of surviving backends must not
// move, and the killed backend's tenants — exactly those — remap.
func failover(c *cluster, reqs []service.Request, placement []string) (*FailoverRow, error) {
	killed := "proc-0"
	fr := &FailoverRow{Backends: len(c.servers), Killed: killed, Sessions: len(reqs)}
	for _, b := range placement {
		if b == killed {
			fr.PriorOnKilled++
		}
	}
	c.servers[0].Close()
	c.rb.CheckHealth()
	if c.rb.Up(killed) {
		return nil, fmt.Errorf("federation: %s still in the ring after kill and health sweep", killed)
	}
	for i, req := range reqs {
		resp, err := c.rb.Submit(req)
		if err != nil || resp.Status != service.StatusOK {
			fr.SessionsLost++
			continue
		}
		switch {
		case resp.Backend == killed:
			return nil, fmt.Errorf("federation: tenant-%d routed to the killed backend", i)
		case placement[i] == killed:
			fr.Remapped++
		case resp.Backend == placement[i]:
			fr.Stayed++
		default:
			return nil, fmt.Errorf("federation: tenant-%d moved %s -> %s though its backend survived",
				i, placement[i], resp.Backend)
		}
	}
	fr.RemapFraction = float64(fr.Remapped) / float64(fr.Sessions)
	return fr, nil
}

// Check is the CI gate over a report: work conservation across backend
// counts, the routed-speedup floors at two and four backends, and the
// failover invariants (no session lost, only the killed backend's tenants
// remapped, remap fraction in consistent-hash territory).
func Check(rep *Report, min2, min4 float64) error {
	if len(rep.Scaling) < 2 {
		return fmt.Errorf("federation: scaling has %d rows, want >= 2", len(rep.Scaling))
	}
	total := rep.Scaling[0].TotalVirtualNs
	for _, row := range rep.Scaling {
		if row.TotalVirtualNs != total {
			return fmt.Errorf("federation: total virtual ns drifts across backend counts: %d at %d backends vs %d at %d",
				row.TotalVirtualNs, row.Backends, total, rep.Scaling[0].Backends)
		}
		placed := 0
		for _, c := range row.SessionsPerBackend {
			placed += c
		}
		if placed != row.Sessions {
			return fmt.Errorf("federation: %d backends placed %d of %d sessions", row.Backends, placed, row.Sessions)
		}
		var want float64
		switch {
		case row.Backends == 2:
			want = min2
		case row.Backends >= 4:
			want = min4
		}
		if want > 0 && row.Speedup < want {
			return fmt.Errorf("federation: %d backends reached %.2fx, want >= %.2fx", row.Backends, row.Speedup, want)
		}
	}
	fr := rep.Failover
	if fr == nil {
		return fmt.Errorf("federation: failover table is missing")
	}
	if fr.SessionsLost != 0 {
		return fmt.Errorf("federation: failover lost %d sessions, want 0", fr.SessionsLost)
	}
	if fr.Stayed+fr.Remapped != fr.Sessions {
		return fmt.Errorf("federation: failover stayed %d + remapped %d != %d sessions",
			fr.Stayed, fr.Remapped, fr.Sessions)
	}
	if fr.Remapped != fr.PriorOnKilled {
		return fmt.Errorf("federation: failover remapped %d sessions but %d lived on %s — unrouted tenants moved",
			fr.Remapped, fr.PriorOnKilled, fr.Killed)
	}
	// Expected share is 1/N; allow 2x placement noise above it.
	if limit := 2.0 / float64(fr.Backends); fr.Remapped == 0 || fr.RemapFraction > limit {
		return fmt.Errorf("federation: failover remap fraction %.3f outside (0, %.3f], expected ~1/%d",
			fr.RemapFraction, limit, fr.Backends)
	}
	return nil
}

// Render renders the report as tables.
func Render(rep *Report) string {
	tb := texttable.New("Backends", "Sessions", "Makespan", "Speedup", "ProxyOverhead", "Placement")
	for _, r := range rep.Scaling {
		tb.Add(fmt.Sprintf("%d", r.Backends),
			fmt.Sprintf("%d", r.Sessions),
			fmt.Sprintf("%dns", r.MakespanNs), fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%dns", r.ProxyMeanOverheadNs),
			fmt.Sprintf("%v", r.SessionsPerBackend))
	}
	out := tb.String()
	if fr := rep.Failover; fr != nil {
		ft := texttable.New("Backends", "Killed", "Sessions", "Lost", "Stayed", "Remapped", "RemapFraction")
		ft.Add(fmt.Sprintf("%d", fr.Backends), fr.Killed,
			fmt.Sprintf("%d", fr.Sessions), fmt.Sprintf("%d", fr.SessionsLost),
			fmt.Sprintf("%d", fr.Stayed), fmt.Sprintf("%d", fr.Remapped),
			fmt.Sprintf("%.3f (~1/%d)", fr.RemapFraction, fr.Backends))
		out += "\n" + ft.String()
	}
	return out
}
