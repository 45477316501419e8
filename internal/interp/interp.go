// Package interp executes ir programs against a sanitizer runtime.
//
// The program tree is compiled once into a graph of closures (a simple
// template JIT), so per-statement dispatch cost is a function call rather
// than a tree walk. Each load and store is a single fused closure that
// computes its address from the variable file, runs its planned check (no
// call at all when the plan has none), tests the arena bounds once and
// moves the bytes itself; variables and constants are slot reads, not
// closures (see access.go). The check itself starts inline, as compiled
// instrumentation does: GiantSan's quasi-bound hit and fast check, and
// ASan's first-segment test, are bound into the access closure, and only
// an access they do not pass calls the checker. The body of a call is
// spliced into the enclosing statement list, so a call costs nothing.
// That matters for the evaluation: the Table 2 numbers compare native
// execution (checks absent) with sanitized execution (checks present) of
// the *same* closure graph, so the measured delta is the sanitizer work —
// metadata loads, check branches, slow paths — not interpreter
// bookkeeping or call dispatch.
//
// Execution follows the paper's SPEC configuration: halt_on_error=false,
// so failing checks are recorded and the offending memory operation is
// skipped (the simulated equivalent of ASan's recover mode).
package interp

import (
	"fmt"

	"giantsan/internal/analysis"
	"giantsan/internal/instrument"
	"giantsan/internal/ir"
	"giantsan/internal/report"
	"giantsan/internal/rt"
	"giantsan/internal/san"
	"giantsan/internal/vmem"
)

// ExecStats counts the dynamic behaviour of one run, the raw material for
// Figure 10 and the check-count columns of EXPERIMENTS.md.
type ExecStats struct {
	// Accesses is the number of dynamic memory operations (loads, stores,
	// intrinsics).
	Accesses uint64
	// Eliminated counts accesses executed with no per-access check
	// (covered by merged or promoted checks).
	Eliminated uint64
	// Cached counts accesses protected through a quasi-bound cache.
	Cached uint64
	// Direct counts accesses with standalone checks.
	Direct uint64
	// FastOnly and FullCheck split Direct GiantSan checks by whether the
	// slow path ran (Figure 10's FastOnly/FullCheck split).
	FastOnly  uint64
	FullCheck uint64
	// PreChecks counts hoisted (preheader) and group region checks.
	PreChecks uint64
	// SampledOut counts accesses whose planned check was skipped by the
	// profile's deterministic 1-in-N sampling gate (the memory operation
	// itself still executed, natively).
	SampledOut uint64
	// Skipped counts memory operations suppressed after a failed check.
	Skipped uint64
	// Mallocs and Frees count dynamic heap transitions. The fuzzer's
	// coverage signature folds them in so mutants that change the heap
	// shape (an extra allocation reached, a free executed earlier) read
	// as novel even when the access counters coincide.
	Mallocs uint64
	Frees   uint64
}

// Result is the outcome of one execution.
type Result struct {
	Stats ExecStats
	// San is a snapshot of the sanitizer's counters for the run.
	San san.Stats
	// Checksum is a value-dependent digest: workloads fold loaded data
	// into it so the compiler/runtime cannot elide the memory traffic and
	// tests can assert value correctness.
	Checksum uint64
	// Errors holds the recorded reports (halt_on_error=false).
	Errors report.Log
}

// state is the mutable execution state threaded through closures.
type state struct {
	vars  []int64
	rng   uint64
	run   rt.Runtime
	space *vmem.Space
	// base and mem are the space's arena: address base+i is mem[i].
	base     vmem.Addr
	mem      []byte
	sanStats *san.Stats
	caches   []san.Cache
	stats    ExecStats
	checksum uint64
	errs     report.Log
}

func (s *state) rand(n int64) int64 {
	// xorshift64*: deterministic, fast, good enough dispersion.
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	if n <= 0 {
		return 0
	}
	v := int64((s.rng * 2685821657736338717) >> 1)
	return v % n
}

// Exec is a compiled program bound to a runtime.
type Exec struct {
	prog *ir.Prog
	run  rt.Runtime
	body []stmtFn
	// vars0 is the variable file a run starts from: zero except for the
	// constant operand slots.
	vars0   []int64
	nCaches int
	seed    uint64
}

type stmtFn func(*state)
type exprFn func(*state) int64

// Compile compiles p with the given instrumentation plan against run.
// The same Exec can be Run multiple times; each run resets state.
func Compile(p *ir.Prog, plan *instrument.Plan, facts *analysis.Facts, run rt.Runtime) (*Exec, error) {
	c := &compiler{
		plan:   plan,
		facts:  facts,
		run:    run,
		slots:  map[string]int{},
		consts: map[int64]int{},
	}
	body, err := c.block(p.Body)
	if err != nil {
		return nil, fmt.Errorf("interp: compiling %s: %w", p.Name, err)
	}
	return &Exec{
		prog:    p,
		run:     run,
		body:    body,
		vars0:   c.vars0(),
		nCaches: c.nCaches,
		seed:    0x9e3779b97f4a7c15,
	}, nil
}

// Run executes the program once and returns the result. The sanitizer's
// counters are snapshotted across the run (and left accumulated in the
// sanitizer, as in a real process).
func (e *Exec) Run() *Result {
	space := e.run.Space()
	base, mem := space.Arena()
	st := &state{
		vars:     append([]int64(nil), e.vars0...),
		rng:      e.seed,
		run:      e.run,
		space:    space,
		base:     base,
		mem:      mem,
		sanStats: e.run.San().Stats(),
		caches:   make([]san.Cache, e.nCaches),
	}
	before := *st.sanStats
	for _, fn := range e.body {
		fn(st)
	}
	after := *st.sanStats
	return &Result{Stats: st.stats, San: after.Sub(&before), Checksum: st.checksum, Errors: st.errs}
}

type compiler struct {
	plan  *instrument.Plan
	facts *analysis.Facts
	run   rt.Runtime
	// slots and consts map variable names and constant operands to their
	// indices in the variable file; nSlots counts both.
	slots   map[string]int
	consts  map[int64]int
	nSlots  int
	loops   []*loopCtx
	nCaches int
}

type loopCtx struct {
	loop *ir.Loop
	// caches lists the loop's quasi-bound caches in registration order.
	caches []loopCache
}

// loopCache is one quasi-bound cache of a loop: the slot of the base
// variable it anchors on, its state cache index, and the access type its
// loop-exit check reports (Write when any access bound to it is a store).
type loopCache struct {
	base, idx int
	access    report.AccessType
}

func (c *compiler) slot(name string) int {
	if i, ok := c.slots[name]; ok {
		return i
	}
	i := c.nSlots
	c.nSlots++
	c.slots[name] = i
	return i
}

// constSlot returns the slot that holds the constant v for every run. No
// statement writes it: Exec.Run starts each run from vars0, where it is
// set.
func (c *compiler) constSlot(v int64) int {
	if i, ok := c.consts[v]; ok {
		return i
	}
	i := c.nSlots
	c.nSlots++
	c.consts[v] = i
	return i
}

// leaf reports whether e is a variable, a constant or absent (nil means
// 0): an operand that compiles to a slot read.
func leaf(e ir.Expr) bool {
	switch e.(type) {
	case nil, ir.Const, ir.Var:
		return true
	}
	return false
}

// vars0 returns the variable file every run starts from: zero except for
// the constant slots.
func (c *compiler) vars0() []int64 {
	vars := make([]int64, c.nSlots)
	for v, i := range c.consts {
		vars[i] = v
	}
	return vars
}

// operand compiles e to the slot a leaf reads (a constant or an absent
// expression reads a constant slot), or to its expression closure when e
// is not a leaf.
func (c *compiler) operand(e ir.Expr) (int, exprFn, error) {
	switch n := e.(type) {
	case nil:
		return c.constSlot(0), nil, nil
	case ir.Const:
		return c.constSlot(int64(n)), nil, nil
	case ir.Var:
		return c.slot(string(n)), nil, nil
	}
	fn, err := c.expr(e)
	return 0, fn, err
}

func (c *compiler) expr(e ir.Expr) (exprFn, error) {
	switch n := e.(type) {
	case nil:
		return func(*state) int64 { return 0 }, nil
	case ir.Const:
		v := int64(n)
		return func(*state) int64 { return v }, nil
	case ir.Var:
		i := c.slot(string(n))
		return func(s *state) int64 { return s.vars[i] }, nil
	case ir.Rand:
		nf, err := c.expr(n.N)
		if err != nil {
			return nil, err
		}
		return func(s *state) int64 { return s.rand(nf(s)) }, nil
	case ir.Bin:
		if leaf(n.L) && leaf(n.R) {
			l, _, _ := c.operand(n.L)
			r, _, _ := c.operand(n.R)
			return binSlots(n.Op, l, r)
		}
		lf, err := c.expr(n.L)
		if err != nil {
			return nil, err
		}
		rf, err := c.expr(n.R)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case ir.Add:
			return func(s *state) int64 { return lf(s) + rf(s) }, nil
		case ir.Sub:
			return func(s *state) int64 { return lf(s) - rf(s) }, nil
		case ir.Mul:
			return func(s *state) int64 { return lf(s) * rf(s) }, nil
		case ir.Div:
			return func(s *state) int64 {
				r := rf(s)
				if r == 0 {
					return 0
				}
				return lf(s) / r
			}, nil
		case ir.Mod:
			return func(s *state) int64 {
				r := rf(s)
				if r == 0 {
					return 0
				}
				return lf(s) % r
			}, nil
		case ir.And:
			return func(s *state) int64 { return lf(s) & rf(s) }, nil
		case ir.Xor:
			return func(s *state) int64 { return lf(s) ^ rf(s) }, nil
		case ir.Shr:
			return func(s *state) int64 { return lf(s) >> (uint64(rf(s)) & 63) }, nil
		default:
			return nil, fmt.Errorf("unknown binop %d", n.Op)
		}
	default:
		return nil, fmt.Errorf("unknown expr %T", e)
	}
}

// binSlots fuses a binary operation whose operands are both slot reads
// into one closure, with the semantics of the generic form in expr.
func binSlots(op ir.BinOp, l, r int) (exprFn, error) {
	switch op {
	case ir.Add:
		return func(s *state) int64 { return s.vars[l] + s.vars[r] }, nil
	case ir.Sub:
		return func(s *state) int64 { return s.vars[l] - s.vars[r] }, nil
	case ir.Mul:
		return func(s *state) int64 { return s.vars[l] * s.vars[r] }, nil
	case ir.Div:
		return func(s *state) int64 {
			if s.vars[r] == 0 {
				return 0
			}
			return s.vars[l] / s.vars[r]
		}, nil
	case ir.Mod:
		return func(s *state) int64 {
			if s.vars[r] == 0 {
				return 0
			}
			return s.vars[l] % s.vars[r]
		}, nil
	case ir.And:
		return func(s *state) int64 { return s.vars[l] & s.vars[r] }, nil
	case ir.Xor:
		return func(s *state) int64 { return s.vars[l] ^ s.vars[r] }, nil
	case ir.Shr:
		return func(s *state) int64 { return s.vars[l] >> (uint64(s.vars[r]) & 63) }, nil
	default:
		return nil, fmt.Errorf("unknown binop %d", op)
	}
}

// block compiles a statement list. The body of a call into instrumented
// code is spliced into the enclosing list: the simulation has no calling
// convention to model, and internal/analysis has already applied the call
// boundary, so a call costs no closure and no nested runBlock.
func (c *compiler) block(stmts []ir.Stmt) ([]stmtFn, error) {
	return c.appendBlock(make([]stmtFn, 0, len(stmts)), stmts)
}

func (c *compiler) appendBlock(out []stmtFn, stmts []ir.Stmt) ([]stmtFn, error) {
	for _, s := range stmts {
		if call, ok := s.(*ir.Call); ok {
			var err error
			if out, err = c.appendBlock(out, call.Body); err != nil {
				return nil, err
			}
			continue
		}
		fn, err := c.stmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, fn)
	}
	return out, nil
}

func runBlock(fns []stmtFn, s *state) {
	for _, fn := range fns {
		fn(s)
	}
}
