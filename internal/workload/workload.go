// Package workload defines the 24 SPEC CPU2017-like kernels used to
// regenerate Table 2 and Figure 10.
//
// SPEC itself is a licensed corpus of multi-million-line C/C++ programs and
// cannot be vendored; what the sanitizer overhead actually depends on is
// the *memory-access mix* — how many accesses sit in provably-bounded
// loops, how many subscripts are data-dependent, how much allocation churn
// and how many bulk intrinsics a program performs. Each kernel below
// reproduces the dominant mix of its SPEC namesake (derived from the
// program's well-known structure: mcf's pointer-free array simplex, lbm's
// stencil sweeps, perlbench's interpreter dispatch, xz's match copying,
// ...), so the per-program optimization proportions (Figure 10) and the
// relative overheads (Table 2) have the same drivers as the paper's.
//
// Every kernel is an ir.Prog parameterized by a scale factor; _r ("rate")
// and _s ("speed") variants differ in problem dimensions, mirroring SPEC's
// two suites.
package workload

import "giantsan/internal/ir"

// Workload is one benchmark program.
type Workload struct {
	// ID is the SPEC-style identifier, e.g. "505.mcf_r".
	ID string
	// HeapBytes sizes the simulated heap this workload needs at scale 1.
	HeapBytes uint64
	// Build constructs the program at the given scale (≥ 1).
	Build func(scale int) *ir.Prog
}

// All returns the full Table 2 program list in the paper's order.
func All() []*Workload {
	return []*Workload{
		{"500.perlbench_r", 8 << 20, func(s int) *ir.Prog { return perlbench("500.perlbench_r", 40*s, 24) }},
		{"502.gcc_r", 24 << 20, func(s int) *ir.Prog { return gcc("502.gcc_r", 400*s, 60) }},
		{"505.mcf_r", 16 << 20, func(s int) *ir.Prog { return mcf("505.mcf_r", 250*s, 60) }},
		{"508.namd_r", 16 << 20, func(s int) *ir.Prog { return namd("508.namd_r", 350*s, 90) }},
		{"510.parest_r", 16 << 20, func(s int) *ir.Prog { return parest("510.parest_r", 900*s, 64) }},
		{"511.povray_r", 8 << 20, func(s int) *ir.Prog { return povray("511.povray_r", 700*s, 220) }},
		{"519.lbm_r", 16 << 20, func(s int) *ir.Prog { return lbm("519.lbm_r", 9000*s, 60) }},
		{"520.omnetpp_r", 16 << 20, func(s int) *ir.Prog { return omnetpp("520.omnetpp_r", 900*s, 160) }},
		{"523.xalancbmk_r", 8 << 20, func(s int) *ir.Prog { return xalancbmk("523.xalancbmk_r", 80*s, 8) }},
		{"531.deepsjeng_r", 8 << 20, func(s int) *ir.Prog { return deepsjeng("531.deepsjeng_r", 15000*s, 64) }},
		{"538.imagick_r", 16 << 20, func(s int) *ir.Prog { return imagick("538.imagick_r", 30*s, 512) }},
		{"541.leela_r", 8 << 20, func(s int) *ir.Prog { return leela("541.leela_r", 1200*s, 120) }},
		{"557.xz_r", 16 << 20, func(s int) *ir.Prog { return xz("557.xz_r", 100*s, 250) }},

		{"600.perlbench_s", 8 << 20, func(s int) *ir.Prog { return perlbench("600.perlbench_s", 56*s, 28) }},
		{"602.gcc_s", 24 << 20, func(s int) *ir.Prog { return gcc("602.gcc_s", 550*s, 64) }},
		{"605.mcf_s", 16 << 20, func(s int) *ir.Prog { return mcf("605.mcf_s", 350*s, 56) }},
		{"619.lbm_s", 16 << 20, func(s int) *ir.Prog { return lbm("619.lbm_s", 12000*s, 60) }},
		{"620.omnetpp_s", 16 << 20, func(s int) *ir.Prog { return omnetpp("620.omnetpp_s", 1200*s, 170) }},
		{"623.xalancbmk_s", 8 << 20, func(s int) *ir.Prog { return xalancbmk("623.xalancbmk_s", 110*s, 7) }},
		{"631.deepsjeng_s", 8 << 20, func(s int) *ir.Prog { return deepsjeng("631.deepsjeng_s", 20000*s, 72) }},
		{"638.imagick_s", 16 << 20, func(s int) *ir.Prog { return imagick("638.imagick_s", 25*s, 640) }},
		{"641.leela_s", 8 << 20, func(s int) *ir.Prog { return leela("641.leela_s", 1600*s, 130) }},
		{"644.nab_s", 16 << 20, func(s int) *ir.Prog { return nab("644.nab_s", 600*s, 110) }},
		{"657.xz_s", 16 << 20, func(s int) *ir.Prog { return xz("657.xz_s", 140*s, 280) }},
	}
}

// byID indexes the list All returns, built once.
var byID = func() map[string]*Workload {
	m := make(map[string]*Workload)
	for _, w := range All() {
		m[w.ID] = w
	}
	return m
}()

// ByID returns the workload with the given ID, or nil. The workload is
// shared by every caller and must not be modified.
func ByID(id string) *Workload { return byID[id] }

// Shorthand constructors keep the kernel definitions readable.

func v(name string) ir.Var { return ir.Var(name) }
func c(x int64) ir.Const   { return ir.Const(x) }
func add(l, r ir.Expr) ir.Bin {
	return ir.Bin{Op: ir.Add, L: l, R: r}
}
func sub(l, r ir.Expr) ir.Bin { return ir.Bin{Op: ir.Sub, L: l, R: r} }
func mul(l, r ir.Expr) ir.Bin { return ir.Bin{Op: ir.Mul, L: l, R: r} }
func mod(l, r ir.Expr) ir.Bin { return ir.Bin{Op: ir.Mod, L: l, R: r} }
func and(l, r ir.Expr) ir.Bin { return ir.Bin{Op: ir.And, L: l, R: r} }
func xor(l, r ir.Expr) ir.Bin { return ir.Bin{Op: ir.Xor, L: l, R: r} }
func rnd(n ir.Expr) ir.Rand   { return ir.Rand{N: n} }
