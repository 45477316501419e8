package trace

import (
	"giantsan/internal/oracle"
	"giantsan/internal/report"
	"giantsan/internal/rt"
	"giantsan/internal/san"
	"giantsan/internal/vmem"
)

// Recorder wraps a runtime and writes every memory operation it sees to a
// trace: allocations, frees, frames, and — through the wrapped sanitizer —
// every check. Run any workload against the Recorder once, then Replay
// the trace under every other sanitizer with identical layouts.
type Recorder struct {
	inner rt.Runtime
	w     *Writer
	// regs maps live addresses back to trace registers.
	regs map[vmem.Addr]uint32
	// err holds the first write error; recording degrades to pass-through
	// rather than failing the run.
	err error
}

// NewRecorder wraps inner, writing the trace through w.
func NewRecorder(inner rt.Runtime, w *Writer) *Recorder {
	return &Recorder{inner: inner, w: w, regs: map[vmem.Addr]uint32{}}
}

// Err returns the first trace-write error, if any.
func (r *Recorder) Err() error { return r.err }

func (r *Recorder) note(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}

// regFor resolves the register and offset for an address: the base of the
// containing or nearest-below allocation.
func (r *Recorder) regFor(p vmem.Addr) (uint32, int64, bool) {
	// Exact base first (the common case: anchored accesses).
	if reg, ok := r.regs[p]; ok {
		return reg, 0, true
	}
	// Nearest base at or below p.
	var bestBase vmem.Addr
	var bestReg uint32
	found := false
	for base, reg := range r.regs {
		if base <= p && (!found || base > bestBase) {
			bestBase, bestReg, found = base, reg, true
		}
	}
	if !found {
		return 0, 0, false
	}
	return bestReg, int64(p) - int64(bestBase), true
}

// Malloc implements rt.Runtime.
func (r *Recorder) Malloc(size uint64) (vmem.Addr, error) {
	p, err := r.inner.Malloc(size)
	if err != nil {
		return p, err
	}
	reg, werr := r.w.Malloc(size)
	r.note(werr)
	r.regs[p] = reg
	return p, nil
}

// Free implements rt.Runtime.
func (r *Recorder) Free(p vmem.Addr) *report.Error {
	if reg, ok := r.regs[p]; ok {
		r.note(r.w.Free(reg))
	}
	return r.inner.Free(p)
}

// PushFrame implements rt.Runtime.
func (r *Recorder) PushFrame() {
	r.note(r.w.Push())
	r.inner.PushFrame()
}

// Alloca implements rt.Runtime.
func (r *Recorder) Alloca(size uint64) (vmem.Addr, error) {
	p, err := r.inner.Alloca(size)
	if err != nil {
		return 0, err
	}
	reg, werr := r.w.Alloca(size)
	r.note(werr)
	r.regs[p] = reg
	return p, nil
}

// PopFrame implements rt.Runtime.
func (r *Recorder) PopFrame() {
	r.note(r.w.Pop())
	r.inner.PopFrame()
}

// Space implements rt.Runtime.
func (r *Recorder) Space() *vmem.Space { return r.inner.Space() }

// Oracle implements rt.Runtime.
func (r *Recorder) Oracle() *oracle.Oracle { return r.inner.Oracle() }

// San implements rt.Runtime: checks pass through to the inner sanitizer
// and are recorded on the way.
func (r *Recorder) San() san.Sanitizer { return &recordingSan{rec: r, inner: r.inner.San()} }

// recordingSan decorates the checker side.
type recordingSan struct {
	rec   *Recorder
	inner san.Sanitizer
}

func (s *recordingSan) Name() string      { return s.inner.Name() }
func (s *recordingSan) Stats() *san.Stats { return s.inner.Stats() }
func (s *recordingSan) MarkAllocated(base vmem.Addr, size uint64) {
	s.inner.MarkAllocated(base, size)
}
func (s *recordingSan) Poison(base vmem.Addr, size uint64, kind san.PoisonKind) {
	s.inner.Poison(base, size, kind)
}
func (s *recordingSan) NewCache() san.Cache {
	return &recordingCache{rec: s.rec, inner: s.inner.NewCache()}
}

// recordingCache records quasi-bound-protected accesses; the replayer
// sees them as plain accesses (the cache is a per-run optimization, not
// part of the memory behaviour).
type recordingCache struct {
	rec   *Recorder
	inner san.Cache
}

func (c *recordingCache) CheckCached(anchor vmem.Addr, off int64, w uint64, t report.AccessType) *report.Error {
	if reg, aoff, ok := c.rec.regFor(anchor); ok {
		c.rec.note(c.rec.w.Access(reg, aoff+off, uint8(min(w, 255)), t == report.Write))
	}
	return c.inner.CheckCached(anchor, off, w, t)
}

func (c *recordingCache) Finish(anchor vmem.Addr, t report.AccessType) *report.Error {
	return c.inner.Finish(anchor, t)
}

func (s *recordingSan) CheckAccess(p vmem.Addr, w uint64, t report.AccessType) *report.Error {
	if reg, off, ok := s.rec.regFor(p); ok {
		s.rec.note(s.rec.w.Access(reg, off, uint8(min(w, 255)), t == report.Write))
	}
	return s.inner.CheckAccess(p, w, t)
}

func (s *recordingSan) CheckRange(l, r vmem.Addr, t report.AccessType) *report.Error {
	if reg, off, ok := s.rec.regFor(l); ok {
		s.rec.note(s.rec.w.Range(reg, off, uint64(r-l), t == report.Write))
	}
	return s.inner.CheckRange(l, r, t)
}

func (s *recordingSan) CheckAnchored(anchor, p vmem.Addr, w uint64, t report.AccessType) *report.Error {
	if reg, aoff, ok := s.rec.regFor(anchor); ok {
		s.rec.note(s.rec.w.Access(reg, aoff+int64(p-anchor), uint8(min(w, 255)), t == report.Write))
	}
	return s.inner.CheckAnchored(anchor, p, w, t)
}
