// Package fuzz is the sanitizer-guided greybox fuzzing engine: a
// feedback-driven mutation loop over mini-IR programs in which the
// sanitizer substrate is both the bug oracle and the coverage
// instrument. Where the blind differential fuzzer (cmd/memfuzz's
// validate mode) relies on progen planting bugs by construction, this
// engine *searches* for them: it mutates clean programs and uses the
// shadow-state features the sanitizer already computes — check-path
// counters, heap transitions, and the near-miss distance gradient
// (san.Stats.NearMissMask) — to steer mutation energy toward inputs
// that graze redzone boundaries without yet crossing them.
//
// Campaigns are deterministic at any parallelism level. Each generation
// is scheduled serially (all randomness is drawn from the campaign rng
// before workers start), executed in parallel over shared-nothing
// runtimes (rt.New), and folded back in index order via parallel.Map's
// ordered results. Byte-identical reports at -parallel 1 and -parallel N
// are a tested property, not an aspiration.
package fuzz

import (
	"fmt"
	"math/rand"
	"runtime"

	"giantsan/internal/bench"
	"giantsan/internal/canary"
	"giantsan/internal/interp"
	"giantsan/internal/ir"
	"giantsan/internal/parallel"
	"giantsan/internal/progen"
	"giantsan/internal/rt"
)

// Mode selects the scheduling policy.
type Mode int

const (
	// Guided is the full engine: energy-weighted parent selection over a
	// growing corpus, class-deficit mutator weights, and near-miss sign
	// bias.
	Guided Mode = iota
	// Blind is the ablation baseline: identical mutation operators and
	// budget, but uniform parent selection over the seed programs only,
	// neutral weights, and no feedback admission. The guided-vs-blind
	// executions-to-detection ratio in BENCH_fuzz.json is defined against
	// this baseline.
	Blind
)

func (m Mode) String() string {
	if m == Blind {
		return "blind"
	}
	return "guided"
}

// Config parameterizes one campaign.
type Config struct {
	Mode Mode
	// Seeds is how many progen.Clean programs found the corpus.
	Seeds int
	// SeedBase offsets both the progen seeds and the campaign rng, so
	// distinct campaigns explore distinct trajectories deterministically.
	SeedBase int64
	// Budget bounds total executions (seed runs included).
	Budget int
	// Batch is the generation size: mutants scheduled per round.
	Batch int
	// Parallel bounds worker concurrency; 0 means GOMAXPROCS. Any value
	// yields byte-identical reports.
	Parallel int
	// HeapBytes sizes each execution runtime (0 = 4 MiB; campaigns run
	// thousands of tiny programs, so small arenas keep forks cheap).
	HeapBytes uint64
	// MaxCorpus bounds the population (0 = 256).
	MaxCorpus int
	// CorpusDir, when set, seeds the campaign with previously saved *.ir
	// entries and persists the final population back.
	CorpusDir string
	// ArtifactDir, when set, receives one replayable artifact per
	// finding: fuzz-<class>.trace (ddmin-shrunk, gsan -replay compatible),
	// .json metadata, and the offending program as .ir.
	ArtifactDir string
	// MaxShrinkReplays bounds ddmin predicate replays per finding
	// (0 = 2048).
	MaxShrinkReplays int
}

func (c Config) withDefaults() Config {
	if c.Seeds <= 0 {
		c.Seeds = 8
	}
	if c.Budget <= 0 {
		c.Budget = 2000
	}
	if c.Batch <= 0 {
		c.Batch = 32
	}
	if c.Parallel <= 0 {
		c.Parallel = runtime.GOMAXPROCS(0)
	}
	if c.HeapBytes == 0 {
		c.HeapBytes = 4 << 20
	}
	return c
}

// Finding is one confirmed detection: the first mutant of a class that
// the sanitizer faulted on, replayed under the full differential matrix
// and shrunk to a minimal trace.
type Finding struct {
	// Class is the campaign bug class (see Classes).
	Class string `json:"class"`
	// Kind is the concrete report kind of the first error.
	Kind string `json:"kind"`
	// Executions is the campaign's execution count when the finding
	// surfaced — the executions-to-detection metric.
	Executions int `json:"executions"`
	// Detections maps differential-matrix config name to whether that
	// configuration also reported the bug.
	Detections map[string]bool `json:"detections"`
	// Program is the offending mutant, canonical encoding.
	Program string `json:"program"`
	// Shrink telemetry (zero when no ArtifactDir and shrinking skipped).
	OriginalEvents int  `json:"original_events,omitempty"`
	MinEvents      int  `json:"min_events,omitempty"`
	ShrinkSteps    int  `json:"shrink_steps,omitempty"`
	ShrinkReplays  int  `json:"shrink_replays,omitempty"`
	OneMinimal     bool `json:"one_minimal,omitempty"`
	// Artifact paths (empty when ArtifactDir unset).
	ArtifactTrace string `json:"artifact_trace,omitempty"`
	ArtifactMeta  string `json:"artifact_meta,omitempty"`
	ArtifactProg  string `json:"artifact_prog,omitempty"`
}

// Report is the outcome of one campaign.
type Report struct {
	Mode       string `json:"mode"`
	SeedBase   int64  `json:"seed_base"`
	Seeds      int    `json:"seeds"`
	Executions int    `json:"executions"`
	// VirtualNs is the campaign's total virtual-clock cost
	// (bench.VirtualCost), the machine-independent time axis.
	VirtualNs int64 `json:"virtual_ns"`
	// Detected maps each bug class to the execution count at first
	// detection; 0 means the budget ran out first (censored).
	Detected map[string]int `json:"detected"`
	// Findings in detection order.
	Findings []*Finding `json:"findings"`
	// CorpusSize is the final population; Features the distinct coverage
	// ids observed; NearMissRuns the executions that grazed a redzone;
	// Noise the faulting runs whose errors were outside every campaign
	// class (null/wild dereferences).
	CorpusSize   int `json:"corpus_size"`
	Features     int `json:"features"`
	NearMissRuns int `json:"near_miss_runs"`
	Noise        int `json:"noise"`
}

// campaign is the engine's mutable state, single-goroutine by design:
// only pure execution fans out.
type campaign struct {
	cfg    Config
	rng    *rand.Rand
	corpus *Corpus
	seen   map[uint64]bool
	rep    *Report
	// pool recycles the runtimes of the shrink loop's replays, hundreds
	// of short traces of one config per finding.
	pool *rt.Pool
}

// Run executes one campaign to detection of every bug class or budget
// exhaustion, whichever first.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	c := &campaign{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.SeedBase ^ 0x67757a7a)),
		corpus: NewCorpus(cfg.MaxCorpus),
		seen:   make(map[uint64]bool),
		pool:   rt.NewPool(cfg.Parallel),
		rep: &Report{
			Mode:     cfg.Mode.String(),
			SeedBase: cfg.SeedBase,
			Detected: make(map[string]int),
		},
	}
	for _, cls := range Classes() {
		c.rep.Detected[cls] = 0
	}
	if err := c.seedPhase(); err != nil {
		return nil, err
	}
	for c.rep.Executions < cfg.Budget && !c.allDetected() {
		n := cfg.Budget - c.rep.Executions
		if n > cfg.Batch {
			n = cfg.Batch
		}
		if err := c.round(n); err != nil {
			return nil, err
		}
	}
	c.rep.CorpusSize = c.corpus.Len()
	c.rep.Features = len(c.seen)
	if cfg.CorpusDir != "" {
		if err := c.corpus.SaveDir(cfg.CorpusDir); err != nil {
			return nil, err
		}
	}
	return c.rep, nil
}

func (c *campaign) allDetected() bool {
	for _, n := range c.rep.Detected {
		if n == 0 {
			return false
		}
	}
	return true
}

// seedPhase founds the corpus: progen.Clean programs plus any persisted
// corpus entries, each executed once (counted against the budget) so
// their coverage baselines the novelty set.
func (c *campaign) seedPhase() error {
	progs := make([]*ir.Prog, 0, c.cfg.Seeds)
	for i := 0; i < c.cfg.Seeds; i++ {
		progs = append(progs, progen.Clean(c.cfg.SeedBase+int64(i)))
	}
	if c.cfg.CorpusDir != "" {
		loaded, err := LoadDir(c.cfg.CorpusDir)
		if err != nil {
			return err
		}
		progs = append(progs, loaded...)
	}
	results, err := parallel.Map(len(progs), parallel.Options{Workers: c.cfg.Parallel},
		func(i int) (*interp.Result, error) {
			return canary.Run(progs[i], canary.LegFor(rt.GiantSan), c.cfg.HeapBytes)
		})
	if err != nil {
		return err
	}
	for i, res := range results {
		c.rep.Executions++
		c.rep.VirtualNs += int64(bench.VirtualCost(res.Stats.Accesses, &res.San))
		newFeats := c.absorb(res)
		if res.Errors.Total() != 0 {
			// A loaded corpus entry that now faults (semantics drifted
			// since it was saved) is not a valid founder; drop it.
			continue
		}
		dist := -1
		if d, ok := res.San.MinNearMiss(); ok {
			dist = d
			c.rep.NearMissRuns++
		}
		c.corpus.Add(&Entry{
			Prog:         progs[i],
			Energy:       10,
			NearMissDist: dist,
			NewFeatures:  newFeats,
			Seed:         true,
		})
	}
	if c.corpus.Len() == 0 {
		return fmt.Errorf("fuzz: no viable seeds (all %d faulted)", len(progs))
	}
	return nil
}

// task is one scheduled mutation, fully resolved before workers start:
// parents and donors are captured as immutable *ir.Prog pointers and all
// randomness is reduced to the per-task seed, so execution is pure.
type task struct {
	parent *ir.Prog
	donor  *ir.Prog
	seed   int64
	bias   Bias
}

type runOut struct {
	prog *ir.Prog
	res  *interp.Result
	err  error
}

// round schedules, executes, and folds in one generation of n mutants.
func (c *campaign) round(n int) error {
	tasks := make([]task, n)
	for i := range tasks {
		var parent *Entry
		if c.cfg.Mode == Guided {
			parent = c.corpus.At(c.corpus.PickWeighted(c.rng.Int63n(c.corpus.TotalEnergy())))
		} else {
			parent = c.corpus.At(c.rng.Intn(c.corpus.Len()))
		}
		donor := c.corpus.At(c.rng.Intn(c.corpus.Len()))
		tasks[i] = task{
			parent: parent.Prog,
			donor:  donor.Prog,
			seed:   c.rng.Int63(),
			bias:   c.policy(parent),
		}
	}
	outs, err := parallel.Map(n, parallel.Options{Workers: c.cfg.Parallel},
		func(i int) (runOut, error) {
			t := tasks[i]
			p := Mutate(t.parent, t.donor, t.seed, t.bias)
			res, err := canary.Run(p, canary.LegFor(rt.GiantSan), c.cfg.HeapBytes)
			return runOut{prog: p, res: res, err: err}, nil
		})
	if err != nil {
		return err
	}
	for _, out := range outs {
		c.rep.Executions++
		if out.err != nil {
			// A mutant the compiler rejects still spent an execution slot
			// but contributes nothing. The mutator validity suite keeps
			// this path dead in practice.
			continue
		}
		c.fold(out.prog, out.res)
	}
	return nil
}

// fold processes one executed mutant in schedule order: novelty
// accounting, detection, and corpus admission.
func (c *campaign) fold(p *ir.Prog, res *interp.Result) {
	c.rep.VirtualNs += int64(bench.VirtualCost(res.Stats.Accesses, &res.San))
	newFeats := c.absorb(res)
	dist := -1
	if d, ok := res.San.MinNearMiss(); ok {
		dist = d
		c.rep.NearMissRuns++
	}

	if res.Errors.Total() != 0 {
		cls := findingClass(&res.Errors)
		if cls == "" {
			c.rep.Noise++
		} else if c.rep.Detected[cls] == 0 {
			f, err := c.confirm(p, res, cls)
			if err == nil {
				c.rep.Detected[cls] = c.rep.Executions
				c.rep.Findings = append(c.rep.Findings, f)
			}
			// A finding that fails to confirm (record/replay error) stays
			// undetected; the campaign keeps hunting the class.
		}
		// Faulting programs never join the corpus: their descendants
		// would rediscover the same bug forever.
		return
	}

	if c.cfg.Mode == Blind || newFeats == 0 {
		// Blind mode takes no feedback; guided mode admits only novelty.
		return
	}
	energy := int64(10 + 5*min(newFeats, 8))
	if dist >= 0 {
		// The proximity gradient: entries one byte from a redzone get the
		// most mutation energy.
		energy += int64(6 * (7 - dist))
	}
	c.corpus.Add(&Entry{
		Prog:         p,
		Energy:       energy,
		NearMissDist: dist,
		NewFeatures:  newFeats,
	})
}

// absorb records the run's coverage features and returns how many were
// first observations.
func (c *campaign) absorb(res *interp.Result) int {
	fresh := 0
	for _, f := range signature(res) {
		if !c.seen[f] {
			c.seen[f] = true
			fresh++
		}
	}
	return fresh
}

// policy derives the mutation bias for one task. Blind mode always gets
// the neutral default; guided mode concentrates weight on operators that
// can produce still-undetected classes and skews nudge direction toward
// the boundary evidence points at.
func (c *campaign) policy(parent *Entry) Bias {
	b := DefaultBias()
	if c.cfg.Mode == Blind {
		return b
	}
	det := c.rep.Detected
	if det["overflow"] == 0 || det["underflow"] == 0 {
		b.Weights[MutNudgeOff] += 30
		b.Weights[MutNudgeSize] += 15
		b.ShrinkSize = 70
	}
	if det["use-after-free"] == 0 {
		b.Weights[MutMoveFree] += 25
	}
	if det["double-free"] == 0 {
		b.Weights[MutDupFree] += 20
	}
	switch {
	case det["overflow"] == 0 && det["underflow"] != 0:
		b.SignPos = 75
	case det["underflow"] == 0 && det["overflow"] != 0:
		b.SignPos = 25
	}
	if parent.NearMissDist >= 0 {
		// Parent grazes a boundary: hammer offset nudges, and push in the
		// direction that closes the remaining distance (near misses are
		// upper-bound grazes, so that is rightward).
		b.Weights[MutNudgeOff] += 12 * (7 - parent.NearMissDist)
		if det["overflow"] == 0 {
			b.SignPos = 85
		}
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
