package fuzz

import (
	"fmt"
	"os"
	"path/filepath"

	"giantsan/internal/canary"
	"giantsan/internal/interp"
	"giantsan/internal/ir"
	"giantsan/internal/rt"
	"giantsan/internal/trace"
)

// Finding confirmation: every detection is replayed under the detecting
// legs of canary.Legs() (the matrix the blind validator uses, minus the
// native leg — a faulting program's checksum legitimately diverges
// natively because sanitized legs skip the faulted operation), then
// trace-recorded and ddmin-shrunk into a replayable artifact that
// `gsan -replay` accepts.

// confirm builds the Finding for a freshly detected class: differential
// matrix verdicts, shrunk trace, persisted artifacts.
func (c *campaign) confirm(p *ir.Prog, res *interp.Result, cls string) (*Finding, error) {
	legs := canary.Legs()[1:]
	f := &Finding{
		Class:      cls,
		Executions: c.rep.Executions,
		Detections: make(map[string]bool, len(legs)),
		Program:    string(ir.Encode(p)),
	}
	for _, e := range res.Errors.Errors {
		if classOf(e.Kind) == cls {
			f.Kind = e.Kind.String()
			break
		}
	}

	for _, leg := range legs {
		r, err := canary.Run(p, leg, c.cfg.HeapBytes)
		if err != nil {
			return nil, fmt.Errorf("fuzz: confirm %s under %s: %w", cls, leg.Name(), err)
		}
		f.Detections[leg.Name()] = findingClass(&r.Errors) == cls
	}

	events, err := canary.RecordEvents(p, canary.LegFor(rt.GiantSan), c.cfg.HeapBytes)
	if err != nil {
		return nil, fmt.Errorf("fuzz: record: %w", err)
	}
	f.OriginalEvents = len(events)

	// Shrink with a replay predicate: a candidate trace reproduces iff an
	// anchored GiantSan replay reports the same bug class. ddmin requires
	// the predicate to hold on its input, so verify before shrinking and
	// fall back to the unshrunk trace when recording lost the bug (e.g. a
	// purely compile-time detection).
	test := func(cand []trace.Event) bool {
		return replayClass(cand, c.cfg.HeapBytes) == cls
	}
	minEvents := events
	if test(events) {
		sh := canary.Shrink(events, test, c.cfg.MaxShrinkReplays)
		minEvents = sh.Events
		f.ShrinkSteps = sh.Steps
		f.ShrinkReplays = sh.Tests
		f.OneMinimal = sh.Minimal
	}
	f.MinEvents = len(minEvents)

	if c.cfg.ArtifactDir != "" {
		if err := c.persist(f, minEvents); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// replayClass replays events under an anchored GiantSan runtime and
// returns the bug class of the first non-noise error ("" when clean or
// the replay itself fails).
func replayClass(events []trace.Event, heapBytes uint64) string {
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: heapBytes})
	rr, err := trace.ReplayEvents(events, env, true)
	if err != nil {
		return ""
	}
	return findingClass(&rr.Errors)
}

// findingArtifactMeta is the JSON schema of a persisted finding.
type findingArtifactMeta struct {
	Class      string          `json:"class"`
	Kind       string          `json:"kind"`
	Mode       string          `json:"mode"`
	SeedBase   int64           `json:"seed_base"`
	Executions int             `json:"executions_to_detection"`
	Sanitizer  string          `json:"sanitizer"`
	HeapBytes  uint64          `json:"heap_bytes"`
	Detections map[string]bool `json:"detections"`
	Original   int             `json:"original_events"`
	MinEvents  int             `json:"min_events"`
	Steps      int             `json:"shrink_steps"`
	Replays    int             `json:"shrink_replays"`
	OneMinimal bool            `json:"one_minimal"`
	Trace      string          `json:"trace"`
	Program    string          `json:"program"`
}

// persist writes the finding's artifacts into ArtifactDir: the shrunk
// trace (raw encoding, `gsan -replay` compatible), the JSON description
// tying it to the mutant program, and the program itself.
func (c *campaign) persist(f *Finding, events []trace.Event) (err error) {
	stem := "fuzz-" + f.Class
	meta := findingArtifactMeta{
		Class:      f.Class,
		Kind:       f.Kind,
		Mode:       c.cfg.Mode.String(),
		SeedBase:   c.cfg.SeedBase,
		Executions: f.Executions,
		Sanitizer:  rt.GiantSan.String(),
		HeapBytes:  c.cfg.HeapBytes,
		Detections: f.Detections,
		Original:   f.OriginalEvents,
		MinEvents:  f.MinEvents,
		Steps:      f.ShrinkSteps,
		Replays:    f.ShrinkReplays,
		OneMinimal: f.OneMinimal,
		Trace:      stem + ".trace",
		Program:    stem + ".ir",
	}
	f.ArtifactTrace, f.ArtifactMeta, err = canary.WriteArtifact(c.cfg.ArtifactDir, stem, events, &meta)
	if err != nil {
		return err
	}
	f.ArtifactProg = filepath.Join(c.cfg.ArtifactDir, meta.Program)
	return os.WriteFile(f.ArtifactProg, []byte(f.Program), 0o644)
}
