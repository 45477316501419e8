package interp

import (
	"encoding/binary"
	"fmt"

	"giantsan/internal/asan"
	"giantsan/internal/core"
	"giantsan/internal/instrument"
	"giantsan/internal/ir"
	"giantsan/internal/report"
	"giantsan/internal/vmem"
)

// The fused access path. Every executed load or store is one closure call
// that does all of its own work: it forms the address base + idx·scale +
// off from the variable file, applies the planned protection, tests the
// arena bounds once and reads or writes little-endian bytes at that
// offset. Only the work the plan asks for costs a call:
//
//   - a subscript that is a variable, a constant or absent is read from its
//     operand slot (see compiler.operand); any other subscript keeps its
//     expression closure;
//   - ModeNone makes no check at all and ModeSkip only counts the access as
//     Eliminated; Group, Cached and Direct call the check closure that
//     guard binds (behind the sampling gate when the profile samples);
//   - a store whose value is a variable or a constant reads it from its
//     slot; any other value keeps its expression closure, evaluated only
//     when the store executes.
//
// In front of that check call sits the access's inline front, the part of
// the check a compiled sanitizer emits inline (see frontKind): GiantSan's
// quasi-bound hit for a Cached access (Figure 9's off + w ≤ ub), its fast
// check for an anchored Direct access (Algorithm 1, lines 1–3), and ASan's
// first-segment test for a Direct access. An access the front passes
// counts exactly what the check call would have counted and makes no
// call; any other access falls through to the check call unchanged. Only
// a sanitizer's own fast path gets a front: the reference path, a sampled
// profile, LFP and every wrapped checker keep the check call alone. A
// wrapper (trace.Recorder's recordingSan, the canary plants) embeds
// san.Sanitizer, so the concrete-type test in checkers skips it, as it
// must: the wrapper's own work — recording the access, a planted fault —
// happens in the methods a front would bypass.

// load compiles one *ir.Load into its fused closure.
func (c *compiler) load(n *ir.Load) (stmtFn, error) {
	b := c.slot(n.Base)
	ix, ixFn, err := c.operand(n.Idx)
	if err != nil {
		return nil, err
	}
	elim, check, fr, err := c.guard(n, n.Base, n.Size)
	if err != nil {
		return nil, err
	}
	dst := c.slot(n.Dst)
	scale, off, w := n.Scale, n.Off, uint64(n.Size)
	return func(s *state) {
		s.stats.Accesses++
		i := s.vars[ix]
		if ixFn != nil {
			i = ixFn(s)
		}
		anchor, rel := vmem.Addr(s.vars[b]), i*scale+off
		a := anchor + vmem.Addr(rel)
		s.stats.Eliminated += elim
		if check != nil {
			switch {
			case fr.kind == frontCached && core.CacheHit(s.caches[fr.cache], anchor, rel, w):
				s.stats.Cached++
			case fr.kind == frontAnchored && fr.giant.FastAnchored(anchor, rel, w),
				fr.kind == frontASan && fr.asan.FastAccess(a, w):
				s.stats.Direct++
				s.stats.FastOnly++
			default:
				if !check(s, a, report.Read) {
					s.stats.Skipped++
					return
				}
			}
		}
		o, size := a-s.base, uint64(len(s.mem))
		if o > size || size-o < w {
			s.stats.Skipped++
			return
		}
		v := int64(loadLE(s.mem[o:], w))
		s.vars[dst] = v
		s.checksum ^= uint64(v)
		s.checksum = s.checksum<<7 | s.checksum>>57
	}, nil
}

// store compiles one *ir.Store into its fused closure.
func (c *compiler) store(n *ir.Store) (stmtFn, error) {
	b := c.slot(n.Base)
	ix, ixFn, err := c.operand(n.Idx)
	if err != nil {
		return nil, err
	}
	elim, check, fr, err := c.guard(n, n.Base, n.Size)
	if err != nil {
		return nil, err
	}
	vs, valFn, err := c.operand(n.Val)
	if err != nil {
		return nil, err
	}
	scale, off, w := n.Scale, n.Off, uint64(n.Size)
	return func(s *state) {
		s.stats.Accesses++
		i := s.vars[ix]
		if ixFn != nil {
			i = ixFn(s)
		}
		anchor, rel := vmem.Addr(s.vars[b]), i*scale+off
		a := anchor + vmem.Addr(rel)
		s.stats.Eliminated += elim
		if check != nil {
			switch {
			case fr.kind == frontCached && core.CacheHit(s.caches[fr.cache], anchor, rel, w):
				s.stats.Cached++
			case fr.kind == frontAnchored && fr.giant.FastAnchored(anchor, rel, w),
				fr.kind == frontASan && fr.asan.FastAccess(a, w):
				s.stats.Direct++
				s.stats.FastOnly++
			default:
				if !check(s, a, report.Write) {
					s.stats.Skipped++
					return
				}
			}
		}
		o, size := a-s.base, uint64(len(s.mem))
		if o > size || size-o < w {
			s.stats.Skipped++
			return
		}
		v := s.vars[vs]
		if valFn != nil {
			v = valFn(s)
		}
		storeLE(s.mem[o:], w, uint64(v))
	}, nil
}

// loadLE reads a w-byte little-endian unsigned integer from the front of
// b, which holds at least w bytes. Widths above 8 read the low 8 bytes'
// worth of value, as vmem.Space.Load does.
func loadLE(b []byte, w uint64) uint64 {
	switch w {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 1:
		return uint64(b[0])
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	}
	var v uint64
	for i := uint64(0); i < w; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// storeLE writes v as a w-byte little-endian integer to the front of b,
// which holds at least w bytes. Bytes past the 8th are written as zero,
// as vmem.Space.Store does.
func storeLE(b []byte, w, v uint64) {
	switch w {
	case 8:
		binary.LittleEndian.PutUint64(b, v)
		return
	case 1:
		b[0] = byte(v)
		return
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
		return
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
		return
	}
	for i := uint64(0); i < w; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// checkFn validates one access; it records any error and returns false
// when the memory operation must be suppressed.
type checkFn func(s *state, a vmem.Addr, t report.AccessType) bool

// frontKind selects the inline front of one checked access.
type frontKind uint8

const (
	// frontNone: the check call alone.
	frontNone frontKind = iota
	// frontCached: GiantSan's quasi-bound hit, core.CacheHit.
	frontCached
	// frontAnchored: GiantSan's fast check, (*core.Sanitizer).FastAnchored.
	frontAnchored
	// frontASan: ASan's first-segment test, (*asan.Sanitizer).FastAccess.
	frontASan
)

// front is the inline front bound into one access closure: its kind, the
// state cache index of a Cached access, and the checker a Direct front
// calls. A closure holds it by pointer, so an access with no check pays
// one captured word for it, not four.
type front struct {
	kind  frontKind
	cache int
	giant *core.Sanitizer
	asan  *asan.Sanitizer
}

// guard binds the planned protection of one access: the amount it adds to
// Eliminated (1 under ModeSkip, else 0), the check closure, nil for the
// check-free modes, and the inline front that runs before it. A Group,
// Cached or Direct check sits behind the profile's sampling gate when the
// profile samples, and then has no front: the gate decides first.
func (c *compiler) guard(st ir.Stmt, baseVar string, size int) (elim uint64, check checkFn, fr *front, err error) {
	fr = &front{}
	switch mode := c.plan.Mode[st]; mode {
	case instrument.ModeNone:
		return 0, nil, fr, nil
	case instrument.ModeSkip:
		return 1, nil, fr, nil
	case instrument.ModeGroup, instrument.ModeCached, instrument.ModeDirect:
		check, *fr, err = c.plannedCheck(st, baseVar, size)
		if rate := c.plan.Profile.SampleRate; err == nil && rate > 1 {
			check, *fr = sampledGate(check, uint64(rate)), front{}
		}
		return 0, check, fr, err
	default:
		return 0, nil, fr, fmt.Errorf("access %T has unexpected mode %v", st, mode)
	}
}

// checkers returns the runtime's checker when it is GiantSan or ASan
// itself on its fast path, the only checkers an inline front may stand
// in for; both are nil for any other checker.
func (c *compiler) checkers() (*core.Sanitizer, *asan.Sanitizer) {
	switch checker := c.run.San().(type) {
	case *core.Sanitizer:
		if !checker.Reference() {
			return checker, nil
		}
	case *asan.Sanitizer:
		if !checker.Reference() {
			return nil, checker
		}
	}
	return nil, nil
}

// sampledGate wraps a planned check in the deterministic 1-in-rate gate:
// the current access's index is s.stats.Accesses-1 (the executing
// statement already counted itself), so which accesses are checked is a
// pure function of the program, identical across runs and machines.
func sampledGate(inner checkFn, rate uint64) checkFn {
	return func(s *state, a vmem.Addr, t report.AccessType) bool {
		if (s.stats.Accesses-1)%rate != 0 {
			s.stats.SampledOut++
			return true
		}
		return inner(s, a, t)
	}
}

// plannedCheck builds the unsampled protection closure for one access and
// its inline front.
func (c *compiler) plannedCheck(st ir.Stmt, baseVar string, size int) (checkFn, front, error) {
	mode := c.plan.Mode[st]
	w := uint64(size)
	checker := c.run.San()
	sanStats := checker.Stats()
	base := c.slot(baseVar)
	giant, asanChecker := c.checkers()

	switch mode {
	case instrument.ModeGroup:
		g := c.plan.Group[st]
		lo, hi := g.Lo, g.Hi
		return func(s *state, _ vmem.Addr, t report.AccessType) bool {
			// The representative's single region check covers the whole
			// must-alias group.
			s.stats.Direct++
			s.stats.PreChecks++
			b := s.vars[base]
			slowBefore := sanStats.SlowChecks
			err := checker.CheckRange(vmem.Addr(b+lo), vmem.Addr(b+hi), t)
			if sanStats.SlowChecks > slowBefore {
				s.stats.FullCheck++
			} else {
				s.stats.FastOnly++
			}
			if err != nil {
				s.errs.Record(err)
				return false
			}
			return true
		}, front{}, nil

	case instrument.ModeCached:
		info := c.facts.Info[st]
		idx, err := c.cacheSlot(info.Loop, baseVar, instrument.AccessOf(st))
		if err != nil {
			return nil, front{}, err
		}
		var fr front
		if giant != nil {
			fr = front{kind: frontCached, cache: idx}
		}
		return func(s *state, a vmem.Addr, t report.AccessType) bool {
			s.stats.Cached++
			cache := s.caches[idx]
			anchor := vmem.Addr(s.vars[base])
			if err := cache.CheckCached(anchor, int64(a-anchor), w, t); err != nil {
				s.errs.Record(err)
				return false
			}
			return true
		}, fr, nil

	case instrument.ModeDirect:
		// ASan's check of a Direct access is CheckAccess under either
		// profile (its CheckAnchored defers to CheckAccess up to 8 bytes,
		// past which FastAccess refuses), so its front fits both closures.
		var fr front
		if asanChecker != nil {
			fr = front{kind: frontASan, asan: asanChecker}
		}
		// The anchored/plain choice is a compile-time property of the
		// profile: bind the right closure once instead of re-branching on
		// every executed access.
		if c.plan.Profile.Anchor {
			if giant != nil && w > 0 {
				fr = front{kind: frontAnchored, giant: giant}
			}
			return func(s *state, a vmem.Addr, t report.AccessType) bool {
				s.stats.Direct++
				slowBefore := sanStats.SlowChecks
				err := checker.CheckAnchored(vmem.Addr(s.vars[base]), a, w, t)
				if sanStats.SlowChecks > slowBefore {
					s.stats.FullCheck++
				} else {
					s.stats.FastOnly++
				}
				if err != nil {
					s.errs.Record(err)
					return false
				}
				return true
			}, fr, nil
		}
		return func(s *state, a vmem.Addr, t report.AccessType) bool {
			s.stats.Direct++
			slowBefore := sanStats.SlowChecks
			err := checker.CheckAccess(a, w, t)
			if sanStats.SlowChecks > slowBefore {
				s.stats.FullCheck++
			} else {
				s.stats.FastOnly++
			}
			if err != nil {
				s.errs.Record(err)
				return false
			}
			return true
		}, fr, nil

	default:
		return nil, front{}, fmt.Errorf("access %T has unexpected mode %v", st, mode)
	}
}
