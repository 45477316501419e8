package interp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"giantsan/internal/bench"
	"giantsan/internal/canary"
	"giantsan/internal/instrument"
	"giantsan/internal/interp"
	"giantsan/internal/ir"
	"giantsan/internal/lfp"
	"giantsan/internal/parallel"
	"giantsan/internal/progen"
	"giantsan/internal/rt"
	"giantsan/internal/workload"
)

// goldenDigest pins the observable outcome of every run of the golden matrix:
// ExecStats, the sanitizer's Stats delta, the checksum and every report
// string. A change to the interpreter that is meant to be a pure speed-up
// must leave it untouched; a change that is meant to alter a verdict
// re-records it and says which lines moved (-golden.dump writes them).
const goldenDigest = "a0d15fbf4ccd4fa9"

var goldenDump = flag.String("golden.dump", "", "write the canonical golden text to this file")

// goldenLeg is one (profile, runtime) configuration of the golden matrix.
type goldenLeg struct {
	name string
	run  func(p *ir.Prog, heapBytes uint64) (*interp.Result, error)
}

func goldenLegs() []goldenLeg {
	var out []goldenLeg
	for _, l := range canary.Legs() {
		out = append(out, goldenLeg{l.Name(), func(p *ir.Prog, heap uint64) (*interp.Result, error) {
			return canary.Run(p, l, heap)
		}})
	}
	sampled := canary.Leg{Profile: instrument.Sampled(8), Kind: rt.GiantSan}
	out = append(out, goldenLeg{sampled.Name(), func(p *ir.Prog, heap uint64) (*interp.Result, error) {
		return canary.Run(p, sampled, heap)
	}})
	// LFP has its own Space and allocator; build it as Table 2 does.
	out = append(out, goldenLeg{"lfp", func(p *ir.Prog, heap uint64) (*interp.Result, error) {
		env := lfp.New(lfp.Config{HeapBytes: heap * 2, MaxClass: 1 << 20})
		ex, err := interp.Prepare(p, instrument.LFPProfile, env)
		if err != nil {
			return nil, err
		}
		return ex.Run(), nil
	}})
	return out
}

// goldenProgram is one program of the golden matrix with its heap size.
type goldenProgram struct {
	name  string
	build func() *ir.Prog
	heap  uint64
	// noLFP marks the kernels LFP cannot build or run (Table 2's CE/RE).
	noLFP bool
}

// progenHeap sizes the runtimes of progen programs: their buffers are
// at most a few KiB, and a small arena keeps the matrix fast.
const progenHeap = 1 << 20

func goldenPrograms() []goldenProgram {
	var out []goldenProgram
	for _, w := range workload.All() {
		out = append(out, goldenProgram{w.ID, func() *ir.Prog { return w.Build(1) }, w.HeapBytes, bench.LFPFailure(w.ID) != ""})
	}
	for seed := int64(1); seed <= 300; seed++ {
		out = append(out, goldenProgram{fmt.Sprintf("clean-%d", seed), func() *ir.Prog { return progen.Clean(seed) }, progenHeap, false})
		if _, ok := progen.Buggy(seed); ok {
			out = append(out, goldenProgram{fmt.Sprintf("buggy-%d", seed), func() *ir.Prog {
				p, _ := progen.Buggy(seed)
				return p
			}, progenHeap, false})
		}
	}
	return out
}

// goldenLine renders one run canonically.
func goldenLine(prog, leg string, res *interp.Result, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", prog, leg)
	if err != nil {
		fmt.Fprintf(&b, " error=%v\n", err)
		return b.String()
	}
	fmt.Fprintf(&b, " stats=%+v san=%+v checksum=%#x errors=%d\n", res.Stats, res.San, res.Checksum, res.Errors.Total())
	for _, e := range res.Errors.Errors {
		fmt.Fprintf(&b, "\t%s\n", e.Error())
	}
	return b.String()
}

// TestGoldenDigest runs every workload and progen seeds 1-300 (clean and
// buggy) under every canary leg, the sampled tier and LFP, and compares
// the digest of the canonical results with goldenDigest.
func TestGoldenDigest(t *testing.T) {
	progs := goldenPrograms()
	legs := goldenLegs()
	lines, err := parallel.Map(len(progs), parallel.Options{}, func(i int) (string, error) {
		gp := progs[i]
		var b strings.Builder
		for _, leg := range legs {
			if leg.name == "lfp" && gp.noLFP {
				continue
			}
			res, err := leg.run(gp.build(), gp.heap)
			b.WriteString(goldenLine(gp.name, leg.name, res, err))
		}
		return b.String(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(lines, "")
	if *goldenDump != "" {
		if err := os.WriteFile(*goldenDump, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256([]byte(text))
	if got := hex.EncodeToString(sum[:8]); got != goldenDigest {
		t.Fatalf("golden digest = %s, want %s (run with -golden.dump FILE and diff against the parent's dump)", got, goldenDigest)
	}
}

// TestFastMatchesReference runs every golden program under each detecting
// canary leg twice: on the sanitizer's fast path, where the interpreter
// binds its inline fronts, and with rt.Config{Reference: true}, where it
// binds none and every check takes the reference implementation. The two
// runs must give identical ExecStats, san.Stats, checksum and reports.
func TestFastMatchesReference(t *testing.T) {
	progs := goldenPrograms()
	legs := canary.Legs()[1:]
	run := func(p *ir.Prog, leg canary.Leg, heap uint64, reference bool) string {
		env := rt.New(rt.Config{Kind: leg.Kind, HeapBytes: heap, Reference: reference})
		ex, err := interp.Prepare(p, leg.Profile, env)
		if err != nil {
			return goldenLine(p.Name, leg.Name(), nil, err)
		}
		return goldenLine(p.Name, leg.Name(), ex.Run(), nil)
	}
	_, err := parallel.Map(len(progs), parallel.Options{}, func(i int) (struct{}, error) {
		gp := progs[i]
		for _, leg := range legs {
			fast := run(gp.build(), leg, gp.heap, false)
			if ref := run(gp.build(), leg, gp.heap, true); fast != ref {
				return struct{}{}, fmt.Errorf("%s under %s: fast path\n%s reference path\n%s", gp.name, leg.Name(), fast, ref)
			}
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
