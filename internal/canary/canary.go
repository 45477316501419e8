package canary

import (
	"fmt"
	"sync/atomic"

	"giantsan/internal/ir"
	"giantsan/internal/progen"
	"giantsan/internal/rt"
	"giantsan/internal/trace"
)

// Config parameterizes a Canary.
type Config struct {
	// Kind is the sanitizer under validation (default GiantSan).
	Kind rt.Kind
	// HeapBytes sizes each leg's runtime (default 16 MiB, matching the
	// progen differential suites).
	HeapBytes uint64
	// Dir, when non-empty, is where divergence artifacts are persisted:
	// repro-<seed>.trace (the shrunk trace) and repro-<seed>.json (the
	// divergence description + config).
	Dir string
	// Plant names an injected fast-path mutation (see PlantByName);
	// empty means validate the honest fast path.
	Plant string
	// MaxShrinkReplays bounds ddmin predicate invocations per divergence
	// (0 means 2048). Each invocation is a triple replay.
	MaxShrinkReplays int
}

func (cfg Config) withDefaults() Config {
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 16 << 20
	}
	return cfg
}

// Counters is an atomic snapshot of a Canary's lifetime totals, the
// source for the service's gsan_canary_* metric families.
type Counters struct {
	Runs             uint64 `json:"runs"`
	Discrepancies    uint64 `json:"discrepancies"`
	ShrinkSteps      uint64 `json:"shrink_steps"`
	ShrinkReplays    uint64 `json:"shrink_replays"`
	ArtifactsWritten uint64 `json:"artifacts_written"`
	Failures         uint64 `json:"failures"`
	// MinReproEvents is the event count of the most recent shrunk
	// reproduction (a gauge; 0 until the first discrepancy).
	MinReproEvents uint64 `json:"min_repro_events"`
}

// Canary generates programs, records them, triple-replays the traces and
// diffs the legs. RunSeed is pure per seed (fresh runtimes, seed-driven
// generation), so campaigns parallelize and replays are deterministic;
// the counters are atomics shared across concurrent runs.
type Canary struct {
	cfg   Config
	plant Plant

	runs          atomic.Uint64
	discrepancies atomic.Uint64
	shrinkSteps   atomic.Uint64
	shrinkReplays atomic.Uint64
	artifacts     atomic.Uint64
	failures      atomic.Uint64
	minRepro      atomic.Uint64
	next          atomic.Int64
}

// New builds a Canary; the only error is an unknown plant name.
func New(cfg Config) (*Canary, error) {
	plant, err := PlantByName(cfg.Plant)
	if err != nil {
		return nil, err
	}
	return &Canary{cfg: cfg.withDefaults(), plant: plant}, nil
}

// Snapshot reads the lifetime counters.
func (c *Canary) Snapshot() Counters {
	return Counters{
		Runs:             c.runs.Load(),
		Discrepancies:    c.discrepancies.Load(),
		ShrinkSteps:      c.shrinkSteps.Load(),
		ShrinkReplays:    c.shrinkReplays.Load(),
		ArtifactsWritten: c.artifacts.Load(),
		Failures:         c.failures.Load(),
		MinReproEvents:   c.minRepro.Load(),
	}
}

// Result describes one canary run.
type Result struct {
	Seed    int64  `json:"seed"`
	Program string `json:"program"`
	// PlantedBug names the generator wheel slot: "clean" or a
	// progen.BugKind string.
	PlantedBug string `json:"planted_bug"`
	// Events is the recorded trace length.
	Events int               `json:"events"`
	Fast   Observation       `json:"fast"`
	Ref    Observation       `json:"reference"`
	Oracle OracleObservation `json:"oracle"`
	// Divergence is nil when all legs agree.
	Divergence *Divergence `json:"divergence,omitempty"`
	// Shrink description, populated only on divergence.
	MinEvents     int  `json:"min_events,omitempty"`
	ShrinkSteps   int  `json:"shrink_steps,omitempty"`
	ShrinkReplays int  `json:"shrink_replays,omitempty"`
	OneMinimal    bool `json:"one_minimal,omitempty"`
	// MinTrace is the shrunk reproducing trace (nil when no divergence).
	MinTrace []trace.Event `json:"-"`
	// ArtifactTrace/ArtifactMeta are the persisted file paths, when
	// Config.Dir is set and a divergence was found.
	ArtifactTrace string `json:"artifact_trace,omitempty"`
	ArtifactMeta  string `json:"artifact_meta,omitempty"`
}

// programFor spins the generator wheel: every fifth seed is a clean
// program, the rest plant one of the four error kinds, so a campaign
// exercises detection and non-detection on every class. Falls back to
// Clean when the chosen kind fails to plant at that seed.
func programFor(seed int64) (*ir.Prog, string) {
	slot := seed % 5
	if slot == 0 {
		return progen.Clean(seed), "clean"
	}
	kind := progen.BugKinds()[slot-1]
	if p, ok := progen.BuggyKind(seed, kind); ok {
		return p, kind.String()
	}
	return progen.Clean(seed), "clean"
}

// RunNext runs the next seed in sequence (the service's continuous mode).
func (c *Canary) RunNext() (*Result, error) {
	return c.RunSeed(c.next.Add(1) - 1)
}

// RunSeed executes one full canary cycle for a seed: generate a program,
// record its trace under the configured sanitizer, triple-replay, diff,
// and — on divergence — ddmin-shrink to a 1-minimal reproduction and
// persist the artifact. The error return is an infrastructure failure
// (recording or replaying the canary's own trace broke), not a
// divergence; divergences land in the Result.
func (c *Canary) RunSeed(seed int64) (*Result, error) {
	c.runs.Add(1)
	p, bug := programFor(seed)
	res := &Result{Seed: seed, Program: p.Name, PlantedBug: bug}

	events, err := RecordEvents(p, LegFor(c.cfg.Kind), c.cfg.HeapBytes)
	if err != nil {
		c.failures.Add(1)
		return res, fmt.Errorf("canary: seed %d: %w", seed, err)
	}
	res.Events = len(events)

	res.Fast, res.Ref, res.Oracle, err = TripleReplay(events, c.cfg, c.plant)
	if err != nil {
		c.failures.Add(1)
		return res, fmt.Errorf("canary: seed %d: %w", seed, err)
	}
	res.Divergence = Diff(res.Fast, res.Ref, res.Oracle)
	if res.Divergence == nil {
		return res, nil
	}
	c.discrepancies.Add(1)

	// Shrink: a candidate is valid when it still produces the same kind
	// of divergence (invalid traces fail TripleReplay and the predicate).
	want := res.Divergence.Kind
	sh := Shrink(events, func(cand []trace.Event) bool {
		f, r, o, rerr := TripleReplay(cand, c.cfg, c.plant)
		if rerr != nil {
			return false
		}
		d := Diff(f, r, o)
		return d != nil && d.Kind == want
	}, c.cfg.MaxShrinkReplays)
	res.MinTrace = sh.Events
	res.MinEvents = len(sh.Events)
	res.ShrinkSteps = sh.Steps
	res.ShrinkReplays = sh.Tests
	res.OneMinimal = sh.Minimal
	c.shrinkSteps.Add(uint64(sh.Steps))
	c.shrinkReplays.Add(uint64(sh.Tests))
	c.minRepro.Store(uint64(res.MinEvents))

	if c.cfg.Dir != "" {
		if err := c.persist(res); err != nil {
			c.failures.Add(1)
			return res, fmt.Errorf("canary: seed %d: %w", seed, err)
		}
		c.artifacts.Add(1)
	}
	return res, nil
}

// artifactMeta is the JSON schema of the persisted repro description.
type artifactMeta struct {
	Seed       int64             `json:"seed"`
	Program    string            `json:"program"`
	PlantedBug string            `json:"planted_bug"`
	Plant      string            `json:"plant,omitempty"`
	Sanitizer  string            `json:"sanitizer"`
	HeapBytes  uint64            `json:"heap_bytes"`
	Divergence *Divergence       `json:"divergence"`
	Original   int               `json:"original_events"`
	MinEvents  int               `json:"min_events"`
	Steps      int               `json:"shrink_steps"`
	Replays    int               `json:"shrink_replays"`
	OneMinimal bool              `json:"one_minimal"`
	Fast       Observation       `json:"fast"`
	Ref        Observation       `json:"reference"`
	Oracle     OracleObservation `json:"oracle"`
	Trace      string            `json:"trace"`
}

// persist writes the shrunk trace and its JSON description into
// Config.Dir.
func (c *Canary) persist(res *Result) (err error) {
	stem := fmt.Sprintf("repro-%d", res.Seed)
	meta := artifactMeta{
		Seed:       res.Seed,
		Program:    res.Program,
		PlantedBug: res.PlantedBug,
		Plant:      c.cfg.Plant,
		Sanitizer:  c.cfg.Kind.String(),
		HeapBytes:  c.cfg.HeapBytes,
		Divergence: res.Divergence,
		Original:   res.Events,
		MinEvents:  res.MinEvents,
		Steps:      res.ShrinkSteps,
		Replays:    res.ShrinkReplays,
		OneMinimal: res.OneMinimal,
		Fast:       res.Fast,
		Ref:        res.Ref,
		Oracle:     res.Oracle,
		Trace:      stem + ".trace",
	}
	res.ArtifactTrace, res.ArtifactMeta, err = WriteArtifact(c.cfg.Dir, stem, res.MinTrace, &meta)
	return err
}
