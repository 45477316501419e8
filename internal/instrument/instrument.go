// Package instrument plans runtime checks for an ir.Prog: the simulated
// counterpart of the paper's compilation-phase instrumentation (Figure 4,
// §4.4). Given a sanitizer capability profile and the static analysis
// facts, it decides per memory access whether its check is
//
//   - eliminated (covered by a merged must-alias group check or a check
//     promoted to the loop preheader, Figure 8c),
//   - cached (protected through the §4.3 quasi-bound),
//   - direct (a standalone operation- or instruction-level check),
//   - or absent (native execution).
//
// The plan is then consumed by internal/interp, which compiles the program
// with exactly these checks.
package instrument

import (
	"fmt"

	"giantsan/internal/analysis"
	"giantsan/internal/ir"
	"giantsan/internal/report"
)

// Profile describes which optimizations a sanitizer's instrumentation may
// use. The Table 2 columns map to profiles below.
type Profile struct {
	Name string
	// Check enables instrumentation at all (false = native run).
	Check bool
	// Eliminate enables must-alias merging and SCEV loop promotion —
	// ASan--'s contribution and half of GiantSan's.
	Eliminate bool
	// Cache enables quasi-bound history caching — GiantSan §4.3.
	Cache bool
	// Anchor enables anchor-based enhancement — GiantSan §4.4.1.
	Anchor bool
	// Reference routes runtime checks through the sanitizer's reference
	// (pre-optimization) implementations instead of the specialized hot
	// paths, for differential runs and before/after benchmarking. It
	// changes no instrumentation decision — only which observably
	// identical check body executes.
	Reference bool
	// SampleRate, when > 1, turns the profile probabilistic: only dynamic
	// accesses whose access index i satisfies i ≡ 0 (mod SampleRate)
	// execute their planned per-access check; the rest run native. The
	// index is the session-local dynamic memory-operation counter, so the
	// set of checked accesses is a pure function of the program — the
	// same accesses are checked on every run, at any parallelism, on any
	// machine (deterministic sampling, not rand()). Loop-level region
	// checks (preheader promotions) are not gated: they are per-loop, not
	// per-access, and cost nothing compared to what they cover. 0 and 1
	// both mean "check every access"; a rate-1 sampled profile is
	// plan- and verdict-identical to its base.
	SampleRate int
}

// Predefined profiles, one per Table 2 configuration.
var (
	// Native runs without any checks.
	Native = Profile{Name: "native"}
	// ASanProfile is stock ASan: instruction-level checks everywhere,
	// intrinsics via the (linear) guardian.
	ASanProfile = Profile{Name: "asan", Check: true}
	// ASanMinusProfile is ASan--: static elimination on top of ASan.
	ASanMinusProfile = Profile{Name: "asan--", Check: true, Eliminate: true}
	// LFPProfile is LFP: per-access O(1) bounds checks with pointer-
	// propagated (anchored) bounds; no shadow, so nothing to eliminate.
	LFPProfile = Profile{Name: "lfp", Check: true, Anchor: true}
	// GiantSanProfile is the full system.
	GiantSanProfile = Profile{Name: "giantsan", Check: true, Eliminate: true, Cache: true, Anchor: true}
	// CacheOnly is the Table 2 ablation with history caching only.
	CacheOnly = Profile{Name: "giantsan-cacheonly", Check: true, Cache: true, Anchor: true}
	// ElimOnly is the Table 2 ablation with check elimination only.
	ElimOnly = Profile{Name: "giantsan-elimonly", Check: true, Eliminate: true, Anchor: true}
	// FullCheck is maximum-fidelity per-access checking on the GiantSan
	// runtime: no elimination, no caching — every access carries its own
	// anchored check at its own site, so every report is attributed to
	// the exact faulting instruction rather than riding on a merged or
	// hoisted region check. It is the costliest (and most diagnosable)
	// rung of the service's tier ladder.
	FullCheck = Profile{Name: "giantsan-fullcheck", Check: true, Anchor: true}
)

// Sampled derives the probabilistic tier profile: the full GiantSan
// optimization stack with per-access checks gated to 1-in-n dynamic
// accesses, deterministically by access index (see Profile.SampleRate).
// n <= 1 returns a profile equivalent to GiantSanProfile.
func Sampled(n int) Profile {
	if n < 1 {
		n = 1
	}
	p := GiantSanProfile
	p.Name = fmt.Sprintf("giantsan-sampled%d", n)
	p.SampleRate = n
	return p
}

// Mode says how one access is protected at run time.
type Mode int

// Access protection modes.
const (
	// ModeNone: no check (native).
	ModeNone Mode = iota
	// ModeSkip: check eliminated — covered by a group or preheader check.
	ModeSkip
	// ModeGroup: this access carries the merged region check for its
	// whole must-alias group (Figure 8c line 2).
	ModeGroup
	// ModeCached: protected through a quasi-bound cache.
	ModeCached
	// ModeDirect: standalone check at the access site.
	ModeDirect
	// ModeRegion: intrinsic (memset/memcpy) region check.
	ModeRegion
)

func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeSkip:
		return "eliminated"
	case ModeGroup:
		return "group"
	case ModeCached:
		return "cached"
	case ModeDirect:
		return "direct"
	default:
		return "region"
	}
}

// PreCheck is a region check hoisted to a loop preheader: it covers the
// affine access pattern base + i·scale + off for i in [0, N), i.e. the
// bytes [base+off, base+(N−1)·scale+off+size). Access is the type of the
// access it stands for, the type its report carries.
type PreCheck struct {
	Base   string
	Scale  int64
	Off    int64
	Size   int64
	Access report.AccessType
}

// Plan is the instrumentation decision for one program under one profile.
type Plan struct {
	Profile Profile
	Mode    map[ir.Stmt]Mode
	// Group gives the merged extent [Lo, Hi) for ModeGroup accesses.
	Group map[ir.Stmt]*analysis.Group
	// Pre lists hoisted checks per loop.
	Pre map[*ir.Loop][]PreCheck
	// CacheVars lists, per loop, the base variables needing a quasi-bound
	// cache instance (created at loop entry, finished at loop exit).
	CacheVars map[*ir.Loop][]string
}

// Build plans checks for p under prof.
func Build(p *ir.Prog, prof Profile, facts *analysis.Facts) *Plan {
	plan := &Plan{
		Profile:   prof,
		Mode:      make(map[ir.Stmt]Mode),
		Group:     make(map[ir.Stmt]*analysis.Group),
		Pre:       make(map[*ir.Loop][]PreCheck),
		CacheVars: make(map[*ir.Loop][]string),
	}
	// Intrinsics are always region-checked when checking at all.
	ir.Walk(p.Body, func(s ir.Stmt) {
		switch s.(type) {
		case *ir.Memset, *ir.Memcpy:
			if prof.Check {
				plan.Mode[s] = ModeRegion
			} else {
				plan.Mode[s] = ModeNone
			}
		}
	})

	groupPlanned := make(map[*analysis.Group]bool)
	for _, acc := range facts.Accesses {
		plan.Mode[acc.Stmt] = plan.modeFor(acc, facts, groupPlanned)
	}
	return plan
}

func (p *Plan) modeFor(acc *analysis.Access, facts *analysis.Facts, groupPlanned map[*analysis.Group]bool) Mode {
	prof := p.Profile
	if !prof.Check {
		return ModeNone
	}
	if prof.Eliminate {
		// SCEV promotion: an unconditional affine subscript in a
		// provably-bounded loop with no barrier — one preheader check
		// covers all iterations (Figure 8c line 5). Conditional accesses
		// are never hoisted (the guarded range may legitimately never be
		// touched), and negative starting offsets (i−c subscripts) stay
		// per-access because the preheader check is anchored upward.
		if acc.Kind == analysis.Affine && acc.Loop != nil && acc.Loop.Bounded &&
			acc.LoopSafe && acc.Unconditional && acc.Off >= 0 {
			p.Pre[acc.Loop] = append(p.Pre[acc.Loop], PreCheck{
				Base: acc.Base, Scale: acc.Scale, Off: acc.Off, Size: int64(acc.Size), Access: AccessOf(acc.Stmt),
			})
			return ModeSkip
		}
		// Loop-invariant hoisting: an unconditional constant-address
		// access inside a safe loop checks once in the preheader
		// (ASan--'s removal of recurring checks).
		if acc.Kind == analysis.ConstAddr && acc.Loop != nil && acc.LoopSafe &&
			acc.Unconditional && acc.Off >= 0 {
			p.Pre[acc.Loop] = append(p.Pre[acc.Loop], PreCheck{
				Base: acc.Base, Scale: 0, Off: acc.Off, Size: int64(acc.Size), Access: AccessOf(acc.Stmt),
			})
			return ModeSkip
		}
		// Must-alias merging: one region check covers the group
		// (Figure 8c line 2: CI(p, p+8) covers p[0] and p[1]).
		if g := facts.GroupOf[acc.Stmt]; g != nil && len(g.Members) >= 2 {
			p.Group[acc.Stmt] = g
			if groupPlanned[g] {
				return ModeSkip
			}
			groupPlanned[g] = true
			return ModeGroup
		}
	}
	// Quasi-bound caching needs a stable anchor: a base reloaded every
	// iteration (pointer chasing) would reset the bound each time, so
	// those accesses stay direct (the fast check still applies).
	if prof.Cache && acc.Loop != nil && acc.BaseStable {
		p.addCacheVar(acc.Loop, acc.Base)
		return ModeCached
	}
	return ModeDirect
}

// AccessOf is the report type of a memory access statement: Write for a
// store, Read for a load.
func AccessOf(st ir.Stmt) report.AccessType {
	if _, ok := st.(*ir.Store); ok {
		return report.Write
	}
	return report.Read
}

func (p *Plan) addCacheVar(loop *ir.Loop, base string) {
	for _, v := range p.CacheVars[loop] {
		if v == base {
			return
		}
	}
	p.CacheVars[loop] = append(p.CacheVars[loop], base)
}

// StaticCounts summarizes the plan for reporting: how many static accesses
// fall into each mode.
func (p *Plan) StaticCounts() map[Mode]int {
	out := make(map[Mode]int)
	for _, m := range p.Mode {
		out[m]++
	}
	return out
}
