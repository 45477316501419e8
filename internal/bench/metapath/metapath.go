// Package metapath microbenchmarks the allocation metadata path in
// isolation: no instrumented program, just tight malloc/free (and stack
// push/pop) churn against the real allocators. Checking is GiantSan's
// strength; poisoning — rebuilding the fold ladder and redzones on every
// allocation — is the overhead the paper concedes on allocation-heavy
// workloads. This suite measures that cost as ns per allocate/release
// operation and shadow-stores per operation, per sanitizer × size class ×
// churn pattern, and reports the speedup of the templated fast lane
// (precomputed fold templates, word-wide fills, batched refill/eviction
// sweeps) over the reference writers, which ARE the pre-PR poisoning code.
//
// The results land in BENCH_metapath.json via `giantbench -exp metapath`;
// `go test -bench=Metapath ./internal/bench/metapath` runs the same matrix
// under the standard Go benchmark harness. ASan-- shares ASan's runtime
// poisoner and LFP has no shadow poisoner, so the matrix covers GiantSan
// and ASan, each in specialized and reference form.
package metapath

import (
	"fmt"
	"math"
	"time"

	"giantsan/internal/rt"
	"giantsan/internal/san"
	"giantsan/internal/texttable"
)

// HeapBytes sizes each measurement arena. Batches rebuild their
// environment, so the arena only needs to absorb one batch of churn.
const HeapBytes = 8 << 20

// FrameLocals is how many locals of the size class one stack-frame op
// pushes.
const FrameLocals = 4

// MinSpeedup is the CI gate's floor: the fast-vs-reference geomean
// speedup Check demands of every GiantSan churn, so the fast lane never
// regresses past its reference path.
const MinSpeedup = 1.0

// Churn is one allocation-lifecycle pattern. Build returns a fresh
// environment's op runner — run performs `ops` allocate/release
// operations — plus the live sanitizer counters. Environments are
// single-use: MeasureOne rebuilds one per timed batch, outside the timer,
// so arena exhaustion and warmup never leak into the measurement.
type Churn struct {
	Name  string
	Build func(kind rt.Kind, reference bool, class uint64) (run func(ops int) error, stats *san.Stats, err error)
}

func buildEnv(kind rt.Kind, reference bool, quarantine uint64) *rt.Env {
	return rt.New(rt.Config{
		Kind:            kind,
		HeapBytes:       HeapBytes,
		QuarantineBytes: quarantine,
		Reference:       reference,
	})
}

// Churns returns the benchmark churn patterns:
//
//   - fresh: every op mallocs a never-before-seen chunk and frees it into
//     an unbounded quarantine — pure bump allocation, every poisoning is a
//     first touch;
//   - tcache-hit: ops go through a thread cache with run refills, the
//     §4.5 steady state where the allocator itself is cheap and poisoning
//     dominates;
//   - quarantine-recycle: a small FIFO budget forces continuous eviction
//     sweeps and free-list reuse — the delayed-reuse steady state;
//   - stack-frame: each op pushes and pops a whole frame of FrameLocals
//     locals, the function-prologue pattern.
func Churns() []Churn {
	return []Churn{
		{Name: "fresh", Build: func(kind rt.Kind, reference bool, class uint64) (func(int) error, *san.Stats, error) {
			env := buildEnv(kind, reference, 1<<30)
			return func(ops int) error {
				for i := 0; i < ops; i++ {
					p, err := env.Malloc(class)
					if err != nil {
						return err
					}
					if rerr := env.Free(p); rerr != nil {
						return fmt.Errorf("free reported %v", rerr)
					}
				}
				return nil
			}, env.San().Stats(), nil
		}},
		{Name: "tcache-hit", Build: func(kind rt.Kind, reference bool, class uint64) (func(int) error, *san.Stats, error) {
			env := buildEnv(kind, reference, 0)
			tc := env.Heap().NewTCache()
			tc.RefillAt = 64
			tc.FlushAt = 64
			return func(ops int) error {
				for i := 0; i < ops; i++ {
					p, err := tc.Malloc(class)
					if err != nil {
						return err
					}
					if rerr := tc.Free(p); rerr != nil {
						return fmt.Errorf("tcache free reported %v", rerr)
					}
				}
				return nil
			}, env.San().Stats(), nil
		}},
		{Name: "quarantine-recycle", Build: func(kind rt.Kind, reference bool, class uint64) (func(int) error, *san.Stats, error) {
			// A budget of ~8 chunk footprints: frees continuously evict, and
			// mallocs recycle from the free list after a short warmup.
			env := buildEnv(kind, reference, 8*(class+64))
			return func(ops int) error {
				for i := 0; i < ops; i++ {
					p, err := env.Malloc(class)
					if err != nil {
						return err
					}
					if rerr := env.Free(p); rerr != nil {
						return fmt.Errorf("free reported %v", rerr)
					}
				}
				return nil
			}, env.San().Stats(), nil
		}},
		{Name: "stack-frame", Build: func(kind rt.Kind, reference bool, class uint64) (func(int) error, *san.Stats, error) {
			env := buildEnv(kind, reference, 0)
			st := env.Stack()
			sizes := make([]uint64, FrameLocals)
			for i := range sizes {
				sizes[i] = class
			}
			return func(ops int) error {
				for i := 0; i < ops; i++ {
					if _, err := st.PushLocals(sizes...); err != nil {
						return err
					}
					st.Pop()
				}
				return nil
			}, env.San().Stats(), nil
		}},
	}
}

// Classes returns the benchmarked size classes: small (redzones dominate),
// the mid classes real allocators see most, and a page-scale object where
// the fold ladder is long.
func Classes() []uint64 { return []uint64{16, 96, 960, 4096} }

// Config is one benchmarked sanitizer configuration.
type Config struct {
	Label     string
	Kind      rt.Kind
	Reference bool
}

// Configs returns the matrix: each shadow sanitizer in specialized and
// reference form.
func Configs() []Config {
	return []Config{
		{"giantsan", rt.GiantSan, false},
		{"giantsan-ref", rt.GiantSan, true},
		{"asan", rt.ASan, false},
		{"asan-ref", rt.ASan, true},
	}
}

// Row is one (sanitizer, churn, class) measurement.
type Row struct {
	Sanitizer string `json:"sanitizer"`
	Churn     string `json:"churn"`
	Class     uint64 `json:"class"`
	// Ops is the operations per batch.
	Ops uint64 `json:"ops"`
	// NsPerOp is mean wall time per allocate/release operation.
	NsPerOp float64 `json:"nsPerOp"`
	// ShadowStoresPerOp is the conceptual metadata segment writes per
	// operation — the machine-independent poisoning cost, identical across
	// fast and reference paths.
	ShadowStoresPerOp float64 `json:"shadowStoresPerOp"`
}

// Report is the BENCH_metapath.json payload.
type Report struct {
	Ops     int      `json:"ops"`
	Classes []uint64 `json:"classes"`
	Rows    []Row    `json:"rows"`
	// Speedup maps "<sanitizer>/<churn>/<class>" to reference-ns ÷
	// specialized-ns, and "<sanitizer>/<churn>" to the geometric mean of
	// that churn's per-class speedups.
	Speedup map[string]float64 `json:"speedup"`
}

// MeasureOne measures one (config, churn, class) cell: one untimed warm
// batch (fills the template caches and yields shadow-stores/op), then
// timed batches — each on a freshly built environment, constructed outside
// the timer — until a minimum wall time has elapsed.
func MeasureOne(cfg Config, ch Churn, class uint64, ops int) (Row, error) {
	run, stats, err := ch.Build(cfg.Kind, cfg.Reference, class)
	if err != nil {
		return Row{}, err
	}
	before := stats.Clone()
	if err := run(ops); err != nil {
		return Row{}, fmt.Errorf("metapath: %s/%s/%d: %v", cfg.Label, ch.Name, class, err)
	}
	delta := stats.Sub(before)
	row := Row{Sanitizer: cfg.Label, Churn: ch.Name, Class: class, Ops: uint64(ops)}
	row.ShadowStoresPerOp = float64(delta.ShadowStores) / float64(ops)

	const minMeasure = 5 * time.Millisecond
	var elapsed time.Duration
	timed := 0
	for elapsed < minMeasure {
		run, _, err := ch.Build(cfg.Kind, cfg.Reference, class)
		if err != nil {
			return Row{}, err
		}
		start := time.Now()
		if err := run(ops); err != nil {
			return Row{}, fmt.Errorf("metapath: %s/%s/%d: %v", cfg.Label, ch.Name, class, err)
		}
		elapsed += time.Since(start)
		timed += ops
	}
	row.NsPerOp = float64(elapsed.Nanoseconds()) / float64(timed)
	return row, nil
}

// Run executes the full matrix. ops ≤ 0 selects the default batch size.
func Run(ops int) (*Report, error) {
	if ops <= 0 {
		ops = 512
	}
	rep := &Report{Ops: ops, Classes: Classes(), Speedup: map[string]float64{}}
	for _, cfg := range Configs() {
		for _, ch := range Churns() {
			for _, class := range Classes() {
				row, err := MeasureOne(cfg, ch, class, ops)
				if err != nil {
					return nil, err
				}
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	byKey := map[string]Row{}
	for _, r := range rep.Rows {
		byKey[fmt.Sprintf("%s/%s/%d", r.Sanitizer, r.Churn, r.Class)] = r
	}
	for _, base := range []string{"giantsan", "asan"} {
		for _, ch := range Churns() {
			prod, n := 1.0, 0
			for _, class := range Classes() {
				fast := byKey[fmt.Sprintf("%s/%s/%d", base, ch.Name, class)]
				ref := byKey[fmt.Sprintf("%s-ref/%s/%d", base, ch.Name, class)]
				if fast.NsPerOp > 0 && ref.NsPerOp > 0 {
					sp := ref.NsPerOp / fast.NsPerOp
					rep.Speedup[fmt.Sprintf("%s/%s/%d", base, ch.Name, class)] = sp
					prod *= sp
					n++
				}
			}
			if n > 0 {
				rep.Speedup[base+"/"+ch.Name] = math.Pow(prod, 1/float64(n))
			}
		}
	}
	return rep, nil
}

// AssertFloor fails when any of the named speedup entries is missing or
// below min — the CI sanity gate that the fast lane never regresses past
// its reference path.
func AssertFloor(rep *Report, min float64, keys ...string) error {
	for _, k := range keys {
		sp, ok := rep.Speedup[k]
		if !ok {
			return fmt.Errorf("metapath: no speedup entry %q", k)
		}
		if sp < min {
			return fmt.Errorf("metapath: speedup %s = %.2fx, below the %.2fx floor", k, sp, min)
		}
	}
	return nil
}

// Check is the CI gate: AssertFloor over every GiantSan churn.
func Check(rep *Report, min float64) error {
	var keys []string
	for _, ch := range Churns() {
		keys = append(keys, "giantsan/"+ch.Name)
	}
	return AssertFloor(rep, min, keys...)
}

// Render formats a report as a text table followed by the per-churn
// geomean speedup lines.
func Render(rep *Report) string {
	tb := texttable.New("Sanitizer", "Churn", "Class", "ns/op", "ShadowStores/op")
	for _, r := range rep.Rows {
		tb.Add(r.Sanitizer, r.Churn, fmt.Sprintf("%d", r.Class),
			fmt.Sprintf("%.0f", r.NsPerOp), fmt.Sprintf("%.1f", r.ShadowStoresPerOp))
	}
	out := tb.String()
	for _, base := range []string{"giantsan", "asan"} {
		for _, ch := range Churns() {
			if sp, ok := rep.Speedup[base+"/"+ch.Name]; ok {
				out += fmt.Sprintf("%s %s: %.2fx vs reference path (geomean)\n", base, ch.Name, sp)
			}
		}
	}
	return out
}
