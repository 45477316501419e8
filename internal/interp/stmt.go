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
		return c.load(n)

	case *ir.Store:
		return c.store(n)

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

// cacheSlot returns the state cache index for (loop, base), registering it
// on the innermost matching loop context; t is the type of the access
// bound to it.
func (c *compiler) cacheSlot(loop *ir.Loop, base string, t report.AccessType) (int, error) {
	b := c.slot(base)
	for i := len(c.loops) - 1; i >= 0; i-- {
		ctx := c.loops[i]
		if ctx.loop != loop {
			continue
		}
		for j := range ctx.caches {
			if lc := &ctx.caches[j]; lc.base == b {
				if t == report.Write {
					lc.access = report.Write
				}
				return lc.idx, nil
			}
		}
		idx := c.nCaches
		c.nCaches++
		ctx.caches = append(ctx.caches, loopCache{base: b, idx: idx, access: t})
		return idx, nil
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
		access     report.AccessType
	}
	var pres []preFn
	for _, pc := range c.plan.Pre[n] {
		pres = append(pres, preFn{base: c.slot(pc.Base), scale: pc.Scale, off: pc.Off, size: pc.Size, access: pc.Access})
	}

	ctx := &loopCtx{loop: n}
	c.loops = append(c.loops, ctx)
	body, err := c.block(n.Body)
	c.loops = c.loops[:len(c.loops)-1]
	if err != nil {
		return nil, err
	}

	// Cache lifecycle: lazily created per run, finished at each loop exit
	// (the §4.3 loop-exit check that catches mid-loop frees).
	caches := ctx.caches

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
				err = checker.CheckRange(vmem.Addr(b), vmem.Addr(hi), p.access)
			} else {
				err = checker.CheckRange(vmem.Addr(lo), vmem.Addr(hi), p.access)
			}
			if err != nil {
				s.errs.Record(err)
			}
		}
		for _, lc := range caches {
			if s.caches[lc.idx] == nil {
				s.caches[lc.idx] = checker.NewCache()
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
		for _, lc := range caches {
			if err := s.caches[lc.idx].Finish(vmem.Addr(s.vars[lc.base]), lc.access); err != nil {
				s.errs.Record(err)
			}
		}
	}, nil
}
