package interp

import (
	"fmt"

	"giantsan/internal/instrument"
	"giantsan/internal/ir"
	"giantsan/internal/report"
	"giantsan/internal/vmem"
)

func (c *compiler) stmt(s ir.Stmt) (stmtFn, error) {
	switch n := s.(type) {
	case *ir.Decl:
		val, err := c.expr(n.Init)
		if err != nil {
			return nil, err
		}
		i := c.slot(n.Name)
		return func(s *state) { s.vars[i] = val(s) }, nil

	case *ir.Assign:
		val, err := c.expr(n.Val)
		if err != nil {
			return nil, err
		}
		i := c.slot(n.Name)
		return func(s *state) { s.vars[i] = val(s) }, nil

	case *ir.Malloc:
		size, err := c.expr(n.Size)
		if err != nil {
			return nil, err
		}
		i := c.slot(n.Dst)
		return func(s *state) {
			p, err := s.run.Malloc(uint64(size(s)))
			if err != nil {
				panic(fmt.Sprintf("interp: malloc failed: %v", err))
			}
			s.stats.Mallocs++
			s.vars[i] = int64(p)
		}, nil

	case *ir.Free:
		i := c.slot(n.Ptr)
		return func(s *state) {
			s.stats.Frees++
			if err := s.run.Free(vmem.Addr(s.vars[i])); err != nil {
				s.errs.Record(err)
			}
		}, nil

	case *ir.Alloca:
		size, err := c.expr(n.Size)
		if err != nil {
			return nil, err
		}
		i := c.slot(n.Dst)
		return func(s *state) {
			p, err := s.run.Alloca(uint64(size(s)))
			if err != nil {
				panic(fmt.Sprintf("interp: alloca failed: %v", err))
			}
			s.vars[i] = int64(p)
		}, nil

	case *ir.Frame:
		body, err := c.block(n.Body)
		if err != nil {
			return nil, err
		}
		return func(s *state) {
			s.run.PushFrame()
			runBlock(body, s)
			s.run.PopFrame()
		}, nil

	case *ir.Load:
		addr, err := c.addr(n.Base, n.Idx, n.Scale, n.Off)
		if err != nil {
			return nil, err
		}
		check, err := c.accessCheck(s, n.Base, n.Size)
		if err != nil {
			return nil, err
		}
		dst := c.slot(n.Dst)
		w := uint64(n.Size)
		load := loadFn(w)
		return func(s *state) {
			s.stats.Accesses++
			a := addr(s)
			if !check(s, a, report.Read) {
				s.stats.Skipped++
				return
			}
			if !s.space.Contains(a, w) {
				s.stats.Skipped++
				return
			}
			v := int64(load(s.space, a))
			s.vars[dst] = v
			s.checksum ^= uint64(v)
			s.checksum = s.checksum<<7 | s.checksum>>57
		}, nil

	case *ir.Store:
		addr, err := c.addr(n.Base, n.Idx, n.Scale, n.Off)
		if err != nil {
			return nil, err
		}
		check, err := c.accessCheck(s, n.Base, n.Size)
		if err != nil {
			return nil, err
		}
		val, err := c.expr(n.Val)
		if err != nil {
			return nil, err
		}
		w := uint64(n.Size)
		store := storeFn(w)
		return func(s *state) {
			s.stats.Accesses++
			a := addr(s)
			if !check(s, a, report.Write) {
				s.stats.Skipped++
				return
			}
			if !s.space.Contains(a, w) {
				s.stats.Skipped++
				return
			}
			store(s.space, a, uint64(val(s)))
		}, nil

	case *ir.Memset:
		base := c.slot(n.Base)
		off, err := c.expr(n.Off)
		if err != nil {
			return nil, err
		}
		val, err := c.expr(n.Val)
		if err != nil {
			return nil, err
		}
		length, err := c.expr(n.Len)
		if err != nil {
			return nil, err
		}
		mode := c.plan.Mode[s]
		checker := c.run.San()
		rate := uint64(c.plan.Profile.SampleRate)
		return func(s *state) {
			s.stats.Accesses++
			l := vmem.Addr(s.vars[base] + off(s))
			ln := length(s)
			if ln <= 0 {
				return
			}
			r := l + vmem.Addr(ln)
			if mode == instrument.ModeRegion {
				if rate > 1 && (s.stats.Accesses-1)%rate != 0 {
					s.stats.SampledOut++
				} else {
					s.stats.PreChecks++
					if err := checker.CheckRange(l, r, report.Write); err != nil {
						s.errs.Record(err)
						s.stats.Skipped++
						return
					}
				}
			}
			if !s.space.Contains(l, uint64(ln)) {
				s.stats.Skipped++
				return
			}
			s.space.Memset(l, byte(val(s)), uint64(ln))
		}, nil

	case *ir.Memcpy:
		dst := c.slot(n.Dst)
		src := c.slot(n.Src)
		dOff, err := c.expr(n.DOff)
		if err != nil {
			return nil, err
		}
		sOff, err := c.expr(n.SOff)
		if err != nil {
			return nil, err
		}
		length, err := c.expr(n.Len)
		if err != nil {
			return nil, err
		}
		mode := c.plan.Mode[s]
		checker := c.run.San()
		rate := uint64(c.plan.Profile.SampleRate)
		return func(s *state) {
			s.stats.Accesses++
			d := vmem.Addr(s.vars[dst] + dOff(s))
			x := vmem.Addr(s.vars[src] + sOff(s))
			ln := length(s)
			if ln <= 0 {
				return
			}
			if mode == instrument.ModeRegion {
				if rate > 1 && (s.stats.Accesses-1)%rate != 0 {
					s.stats.SampledOut++
				} else {
					s.stats.PreChecks += 2
					if err := checker.CheckRange(x, x+vmem.Addr(ln), report.Read); err != nil {
						s.errs.Record(err)
						s.stats.Skipped++
						return
					}
					if err := checker.CheckRange(d, d+vmem.Addr(ln), report.Write); err != nil {
						s.errs.Record(err)
						s.stats.Skipped++
						return
					}
				}
			}
			if !s.space.Contains(d, uint64(ln)) || !s.space.Contains(x, uint64(ln)) {
				s.stats.Skipped++
				return
			}
			s.space.Memcpy(d, x, uint64(ln))
		}, nil

	case *ir.Loop:
		return c.loop(n)

	case *ir.Call:
		// A call into instrumented code: the body runs inline (the
		// simulation has no calling convention to model); the analysis
		// boundary was already applied by internal/analysis.
		body, err := c.block(n.Body)
		if err != nil {
			return nil, err
		}
		return func(s *state) { runBlock(body, s) }, nil

	case *ir.If:
		cond, err := c.expr(n.Cond)
		if err != nil {
			return nil, err
		}
		thenB, err := c.block(n.Then)
		if err != nil {
			return nil, err
		}
		elseB, err := c.block(n.Else)
		if err != nil {
			return nil, err
		}
		return func(s *state) {
			if cond(s) != 0 {
				runBlock(thenB, s)
			} else {
				runBlock(elseB, s)
			}
		}, nil

	case *ir.Opaque:
		return func(s *state) {
			// An uninstrumented external call: costs a little work,
			// clobbers nothing in the simulation.
			s.rng ^= s.rng << 5
		}, nil

	default:
		return nil, fmt.Errorf("unknown stmt %T", s)
	}
}

// addr compiles the effective-address computation base + idx·scale + off.
func (c *compiler) addr(base string, idx ir.Expr, scale, off int64) (func(*state) vmem.Addr, error) {
	b := c.slot(base)
	if idx == nil {
		return func(s *state) vmem.Addr { return vmem.Addr(s.vars[b] + off) }, nil
	}
	ix, err := c.expr(idx)
	if err != nil {
		return nil, err
	}
	return func(s *state) vmem.Addr {
		return vmem.Addr(s.vars[b] + ix(s)*scale + off)
	}, nil
}

// checkFn validates one access; it records any error and returns false
// when the memory operation must be suppressed.
type checkFn func(s *state, a vmem.Addr, t report.AccessType) bool

// accessCheck builds the per-access protection closure from the plan,
// applying the profile's sampling gate around modes that perform a check.
func (c *compiler) accessCheck(st ir.Stmt, baseVar string, size int) (checkFn, error) {
	fn, err := c.plannedCheck(st, baseVar, size)
	if err != nil {
		return nil, err
	}
	if rate := c.plan.Profile.SampleRate; rate > 1 {
		switch c.plan.Mode[st] {
		case instrument.ModeGroup, instrument.ModeCached, instrument.ModeDirect:
			fn = sampledGate(fn, uint64(rate))
		}
	}
	return fn, nil
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

// plannedCheck builds the unsampled protection closure for one access.
func (c *compiler) plannedCheck(st ir.Stmt, baseVar string, size int) (checkFn, error) {
	mode := c.plan.Mode[st]
	w := uint64(size)
	checker := c.run.San()
	sanStats := checker.Stats()
	base := c.slot(baseVar)

	switch mode {
	case instrument.ModeNone:
		return func(*state, vmem.Addr, report.AccessType) bool { return true }, nil

	case instrument.ModeSkip:
		return func(s *state, _ vmem.Addr, _ report.AccessType) bool {
			s.stats.Eliminated++
			return true
		}, nil

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
		}, nil

	case instrument.ModeCached:
		info := c.facts.Info[st]
		idx, err := c.cacheSlot(info.Loop, baseVar)
		if err != nil {
			return nil, err
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
		}, nil

	case instrument.ModeDirect:
		// The anchored/plain choice is a compile-time property of the
		// profile: bind the right closure once instead of re-branching on
		// every executed access.
		if c.plan.Profile.Anchor {
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
			}, nil
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
		}, nil

	default:
		return nil, fmt.Errorf("access %T has unexpected mode %v", st, mode)
	}
}

// cacheSlot returns the state cache index for (loop, base), registering it
// on the innermost matching loop context.
func (c *compiler) cacheSlot(loop *ir.Loop, base string) (int, error) {
	for i := len(c.loops) - 1; i >= 0; i-- {
		ctx := c.loops[i]
		if ctx.loop == loop {
			if idx, ok := ctx.cacheIdx[base]; ok {
				return idx, nil
			}
			idx := c.nCaches
			c.nCaches++
			ctx.cacheIdx[base] = idx
			return idx, nil
		}
	}
	return 0, fmt.Errorf("cached access outside its loop context (base %q)", base)
}

// loop compiles a counted loop with its preheader checks and cache
// lifecycle.
func (c *compiler) loop(n *ir.Loop) (stmtFn, error) {
	nFn, err := c.expr(n.N)
	if err != nil {
		return nil, err
	}
	iSlot := c.slot(n.Var)

	// Preheader region checks (promoted / hoisted).
	type preFn struct {
		base       int
		scale, off int64
		size       int64
	}
	var pres []preFn
	for _, pc := range c.plan.Pre[n] {
		pres = append(pres, preFn{base: c.slot(pc.Base), scale: pc.Scale, off: pc.Off, size: pc.Size})
	}

	ctx := &loopCtx{loop: n, cacheIdx: map[string]int{}}
	c.loops = append(c.loops, ctx)
	body, err := c.block(n.Body)
	c.loops = c.loops[:len(c.loops)-1]
	if err != nil {
		return nil, err
	}

	// Cache lifecycle: lazily created per run, finished at each loop exit
	// (the §4.3 loop-exit check that catches mid-loop frees).
	type cacheRef struct {
		idx  int
		base int
	}
	var crefs []cacheRef
	for baseVar, idx := range ctx.cacheIdx {
		crefs = append(crefs, cacheRef{idx: idx, base: c.slot(baseVar)})
	}

	checker := c.run.San()
	anchored := c.plan.Profile.Anchor
	reverse := n.Reverse
	return func(s *state) {
		count := nFn(s)
		if count <= 0 {
			return
		}
		for _, p := range pres {
			s.stats.PreChecks++
			b := s.vars[p.base]
			lo := b + p.off
			hi := b + p.scale*(count-1) + p.off + p.size
			var err *report.Error
			if anchored {
				err = checker.CheckRange(vmem.Addr(b), vmem.Addr(hi), report.Write)
			} else {
				err = checker.CheckRange(vmem.Addr(lo), vmem.Addr(hi), report.Write)
			}
			if err != nil {
				s.errs.Record(err)
			}
		}
		for _, cr := range crefs {
			if s.caches[cr.idx] == nil {
				s.caches[cr.idx] = checker.NewCache()
			}
		}
		if reverse {
			for i := count - 1; i >= 0; i-- {
				s.vars[iSlot] = i
				runBlock(body, s)
			}
		} else {
			for i := int64(0); i < count; i++ {
				s.vars[iSlot] = i
				runBlock(body, s)
			}
		}
		for _, cr := range crefs {
			if err := s.caches[cr.idx].Finish(vmem.Addr(s.vars[cr.base]), report.Read); err != nil {
				s.errs.Record(err)
			}
		}
	}, nil
}
