package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"giantsan/internal/canary"
	"giantsan/internal/instrument"
	"giantsan/internal/interp"
	"giantsan/internal/ir"
	"giantsan/internal/report"
	"giantsan/internal/rt"
	"giantsan/internal/trace"
)

// Finding confirmation: every detection is replayed under the full
// differential configuration matrix (the same matrix the blind validator
// uses, minus the native leg — a faulting program's checksum legitimately
// diverges natively because sanitized legs skip the faulted operation),
// then trace-recorded and ddmin-shrunk into a replayable artifact that
// `gsan -replay` accepts.

// matrix is the differential confirmation set.
var matrix = []struct {
	name string
	prof instrument.Profile
	kind rt.Kind
}{
	{"giantsan", instrument.GiantSanProfile, rt.GiantSan},
	{"giantsan-cacheonly", instrument.CacheOnly, rt.GiantSan},
	{"giantsan-elimonly", instrument.ElimOnly, rt.GiantSan},
	{"asan", instrument.ASanProfile, rt.ASan},
	{"asan--", instrument.ASanMinusProfile, rt.ASanMinus},
}

// confirm builds the Finding for a freshly detected class: differential
// matrix verdicts, shrunk trace, persisted artifacts.
func (c *campaign) confirm(p *ir.Prog, res *interp.Result, cls string) (*Finding, error) {
	f := &Finding{
		Class:      cls,
		Executions: c.rep.Executions,
		Detections: make(map[string]bool, len(matrix)),
		Program:    string(ir.Encode(p)),
	}
	for _, e := range res.Errors.Errors {
		if classOf(e.Kind) == cls {
			f.Kind = e.Kind.String()
			break
		}
	}

	for _, m := range matrix {
		env := rt.Fork(rt.Config{Kind: m.kind, HeapBytes: c.cfg.HeapBytes})
		ex, err := interp.Prepare(p, m.prof, env)
		if err != nil {
			return nil, fmt.Errorf("fuzz: confirm %s under %s: %w", cls, m.name, err)
		}
		r := ex.Run()
		f.Detections[m.name] = findingClass(&r.Errors) == cls
	}

	events, err := c.record(p)
	if err != nil {
		return nil, err
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

// record executes p under GiantSan with a trace recorder attached and
// returns the decoded events. Uses rt.New: the recorder wraps the runtime
// interface, and the trace must replay against any construction.
func (c *campaign) record(p *ir.Prog) ([]trace.Event, error) {
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	inner := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: c.cfg.HeapBytes})
	rec := trace.NewRecorder(inner, tw)
	ex, err := interp.Prepare(p, instrument.GiantSanProfile, rec)
	if err != nil {
		return nil, fmt.Errorf("fuzz: record: %w", err)
	}
	ex.Run()
	if err := tw.Flush(); err != nil {
		return nil, fmt.Errorf("fuzz: record flush: %w", err)
	}
	if rec.Err() != nil {
		return nil, fmt.Errorf("fuzz: record: %w", rec.Err())
	}
	return trace.ReadAll(&buf)
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
	return findingClassOf(&rr.Errors)
}

// findingClassOf is findingClass over a value log (trace.ReplayResult
// exposes the log by value).
func findingClassOf(log *report.Log) string {
	return findingClass(log)
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
// trace (raw encoding, `gsan -replay` compatible), the mutant program,
// and the JSON description tying them together.
func (c *campaign) persist(f *Finding, events []trace.Event) error {
	if err := os.MkdirAll(c.cfg.ArtifactDir, 0o755); err != nil {
		return err
	}
	enc, err := trace.Encode(events)
	if err != nil {
		return err
	}
	stem := fmt.Sprintf("fuzz-%s", f.Class)
	tracePath := filepath.Join(c.cfg.ArtifactDir, stem+".trace")
	if err := os.WriteFile(tracePath, enc, 0o644); err != nil {
		return err
	}
	progPath := filepath.Join(c.cfg.ArtifactDir, stem+".ir")
	if err := os.WriteFile(progPath, []byte(f.Program), 0o644); err != nil {
		return err
	}
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
		Trace:      filepath.Base(tracePath),
		Program:    filepath.Base(progPath),
	}
	blob, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return err
	}
	metaPath := filepath.Join(c.cfg.ArtifactDir, stem+".json")
	if err := os.WriteFile(metaPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	f.ArtifactTrace = tracePath
	f.ArtifactMeta = metaPath
	f.ArtifactProg = progPath
	return nil
}
