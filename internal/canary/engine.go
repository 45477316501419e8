package canary

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"giantsan/internal/instrument"
	"giantsan/internal/interp"
	"giantsan/internal/ir"
	"giantsan/internal/rt"
	"giantsan/internal/trace"
)

// The differential engine every harness shares: the canary, the fuzzer's
// finding confirmation, memfuzz's blind validation sweep and
// `gsan -record` all run programs through the one leg matrix, program
// runner, recorder and artifact writer below, so the checker of the
// checkers exists once.

// Leg is one shadow configuration of the differential matrix: an
// instrumentation profile paired with the runtime it instruments for.
type Leg struct {
	Profile instrument.Profile
	Kind    rt.Kind
}

// Name is the leg's profile name ("giantsan-cacheonly", "asan--", ...),
// the key fuzz findings record their per-leg verdicts under.
func (l Leg) Name() string { return l.Profile.Name }

// legs is the matrix: the native leg first (the semantic baseline clean
// programs must checksum identically against), then every detecting
// configuration.
var legs = [...]Leg{
	{instrument.Native, rt.GiantSan},
	{instrument.GiantSanProfile, rt.GiantSan},
	{instrument.CacheOnly, rt.GiantSan},
	{instrument.ElimOnly, rt.GiantSan},
	{instrument.ASanProfile, rt.ASan},
	{instrument.ASanMinusProfile, rt.ASanMinus},
}

// Legs returns the six legs in matrix order: native, giantsan,
// giantsan-cacheonly, giantsan-elimonly, asan, asan--. Legs()[1:] are the
// detecting legs.
func Legs() []Leg {
	out := legs
	return out[:]
}

// LegFor returns the full-profile leg of a sanitizer kind: the leg named
// kind.String().
func LegFor(kind rt.Kind) Leg {
	for _, l := range legs {
		if l.Name() == kind.String() {
			return l
		}
	}
	panic("canary: every sanitizer kind names a leg")
}

// Run executes p under leg on a fresh forked runtime with heapBytes of
// heap. A panic during compilation or execution becomes an error, so one
// pathological program cannot take a campaign down.
func Run(p *ir.Prog, leg Leg, heapBytes uint64) (*interp.Result, error) {
	return run(p, leg.Profile, rt.Fork(rt.Config{Kind: leg.Kind, HeapBytes: heapBytes}))
}

func run(p *ir.Prog, prof instrument.Profile, env rt.Runtime) (res *interp.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("executing %s: panic: %v", p.Name, r)
		}
	}()
	ex, err := interp.Prepare(p, prof, env)
	if err != nil {
		return nil, err
	}
	return ex.Run(), nil
}

// Record runs p like Run with a trace recorder between the program and
// its runtime, writing the encoded trace to w, and returns the run's
// result.
func Record(w io.Writer, p *ir.Prog, leg Leg, heapBytes uint64) (*interp.Result, error) {
	tw := trace.NewWriter(w)
	rec := trace.NewRecorder(rt.Fork(rt.Config{Kind: leg.Kind, HeapBytes: heapBytes}), tw)
	res, err := run(p, leg.Profile, rec)
	if err != nil {
		return nil, err
	}
	if err := tw.Flush(); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	if rec.Err() != nil {
		return nil, fmt.Errorf("record: %w", rec.Err())
	}
	return res, nil
}

// RecordEvents is Record into memory, decoded back into events.
func RecordEvents(p *ir.Prog, leg Leg, heapBytes uint64) ([]trace.Event, error) {
	var buf bytes.Buffer
	if _, err := Record(&buf, p, leg, heapBytes); err != nil {
		return nil, err
	}
	return trace.ReadAll(&buf)
}

// WriteArtifact persists a reproduction into dir, creating it if needed:
// events as dir/<stem>.trace (the raw encoding `gsan -replay` accepts)
// and meta as indented JSON in dir/<stem>.json. It returns both paths.
func WriteArtifact(dir, stem string, events []trace.Event, meta any) (tracePath, metaPath string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	enc, err := trace.Encode(events)
	if err != nil {
		return "", "", err
	}
	tracePath = filepath.Join(dir, stem+".trace")
	if err := os.WriteFile(tracePath, enc, 0o644); err != nil {
		return "", "", err
	}
	blob, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return "", "", err
	}
	metaPath = filepath.Join(dir, stem+".json")
	if err := os.WriteFile(metaPath, append(blob, '\n'), 0o644); err != nil {
		return "", "", err
	}
	return tracePath, metaPath, nil
}
