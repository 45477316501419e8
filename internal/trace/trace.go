// Package trace records and replays memory-operation traces.
//
// A trace is the portable form of a sanitizer test case: the sequence of
// allocations, frees and accesses a program performed, without the program.
// Traces let one workload execution be replayed under every sanitizer (or
// under a future encoding) with byte-identical layouts, and serve as the
// regression corpus format for the detection suites.
//
// The encoding is a dense little-endian binary stream: one opcode byte
// followed by fixed-width operands. Pointers are virtual register indices
// (the recorder assigns them), so traces are position-independent: the
// replayer re-allocates and patches addresses.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"giantsan/internal/report"
	"giantsan/internal/rt"
	"giantsan/internal/vmem"
)

// Op is a trace opcode.
type Op uint8

// Trace opcodes.
const (
	// OpMalloc: u32 reg, u64 size.
	OpMalloc Op = iota + 1
	// OpFree: u32 reg.
	OpFree
	// OpAccess: u32 reg, i64 off, u8 width, u8 accessType (0 read, 1 write).
	OpAccess
	// OpRange: u32 reg, i64 off, u64 len, u8 accessType.
	OpRange
	// OpPush / OpPop: stack frames.
	OpPush
	OpPop
	// OpAlloca: u32 reg, u64 size.
	OpAlloca
)

// magic identifies trace streams (and their version).
var magic = [4]byte{'G', 'S', 'T', '1'}

// Event is one decoded trace record.
type Event struct {
	Op    Op
	Reg   uint32
	Off   int64
	Size  uint64
	Width uint8
	Write bool
}

// operandLen is the fixed operand width in bytes of each known opcode;
// its length also bounds the known opcodes for the Writer and Reader.
var operandLen = [...]int{
	OpMalloc: 4 + 8,         // reg, size
	OpFree:   4,             // reg
	OpAccess: 4 + 8 + 1 + 1, // reg, off, width, accessType
	OpRange:  4 + 8 + 8 + 1, // reg, off, len, accessType
	OpPush:   0,
	OpPop:    0,
	OpAlloca: 4 + 8, // reg, size
}

// maxOperandLen is the widest operand block (OpRange's).
const maxOperandLen = 4 + 8 + 8 + 1

// known reports whether op is a defined opcode.
func (op Op) known() bool { return op >= OpMalloc && int(op) < len(operandLen) }

// decodeOperands fills ev's operands from b, which holds exactly
// operandLen[ev.Op] bytes.
func decodeOperands(ev *Event, b []byte) {
	le := binary.LittleEndian
	switch ev.Op {
	case OpMalloc, OpAlloca:
		ev.Reg, ev.Size = le.Uint32(b), le.Uint64(b[4:])
	case OpFree:
		ev.Reg = le.Uint32(b)
	case OpAccess:
		ev.Reg, ev.Off = le.Uint32(b), int64(le.Uint64(b[4:]))
		ev.Width, ev.Write = b[12], b[13] == 1
	case OpRange:
		ev.Reg, ev.Off, ev.Size = le.Uint32(b), int64(le.Uint64(b[4:])), le.Uint64(b[12:])
		ev.Write = b[20] == 1
	}
}

// appendEvent appends ev's encoding, opcode byte first, to b. ev.Op must
// be known.
func appendEvent(b []byte, ev Event) []byte {
	le := binary.LittleEndian
	b = append(b, byte(ev.Op))
	switch ev.Op {
	case OpMalloc, OpAlloca:
		b = le.AppendUint64(le.AppendUint32(b, ev.Reg), ev.Size)
	case OpFree:
		b = le.AppendUint32(b, ev.Reg)
	case OpAccess:
		b = le.AppendUint64(le.AppendUint32(b, ev.Reg), uint64(ev.Off))
		b = append(b, ev.Width, b2u(ev.Write))
	case OpRange:
		b = le.AppendUint64(le.AppendUint32(b, ev.Reg), uint64(ev.Off))
		b = append(le.AppendUint64(b, ev.Size), b2u(ev.Write))
	}
	return b
}

// Writer serializes events.
type Writer struct {
	w       *bufio.Writer
	nextReg uint32
	started bool
	buf     [1 + maxOperandLen]byte // one encoded event
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (tw *Writer) header() error {
	if tw.started {
		return nil
	}
	tw.started = true
	_, err := tw.w.Write(magic[:])
	return err
}

// NewReg allocates the next pointer register.
func (tw *Writer) NewReg() uint32 {
	r := tw.nextReg
	tw.nextReg++
	return r
}

// Emit serializes one already-decoded event. It is the re-encoding half
// of the shrinker round trip: ReadAll a trace into events, drop some,
// Emit the survivors. Registers are written as-is (Emit does not consult
// NewReg), so the caller owns register coherence — a subsequence of a
// valid trace keeps the original register numbers.
func (tw *Writer) Emit(ev Event) error {
	if !ev.Op.known() {
		return fmt.Errorf("trace: cannot encode unknown opcode %d", ev.Op)
	}
	if err := tw.header(); err != nil {
		return err
	}
	_, err := tw.w.Write(appendEvent(tw.buf[:0], ev))
	return err
}

// Malloc records an allocation into a fresh register and returns it.
func (tw *Writer) Malloc(size uint64) (uint32, error) {
	reg := tw.NewReg()
	return reg, tw.Emit(Event{Op: OpMalloc, Reg: reg, Size: size})
}

// Alloca records a stack allocation into a fresh register.
func (tw *Writer) Alloca(size uint64) (uint32, error) {
	reg := tw.NewReg()
	return reg, tw.Emit(Event{Op: OpAlloca, Reg: reg, Size: size})
}

// Free records a free of reg.
func (tw *Writer) Free(reg uint32) error { return tw.Emit(Event{Op: OpFree, Reg: reg}) }

// Access records a width-byte access at reg+off.
func (tw *Writer) Access(reg uint32, off int64, width uint8, write bool) error {
	return tw.Emit(Event{Op: OpAccess, Reg: reg, Off: off, Width: width, Write: write})
}

// Range records a bulk operation over [reg+off, reg+off+n).
func (tw *Writer) Range(reg uint32, off int64, n uint64, write bool) error {
	return tw.Emit(Event{Op: OpRange, Reg: reg, Off: off, Size: n, Write: write})
}

// Push records a frame push.
func (tw *Writer) Push() error { return tw.Emit(Event{Op: OpPush}) }

// Pop records a frame pop.
func (tw *Writer) Pop() error { return tw.Emit(Event{Op: OpPop}) }

// Flush flushes buffered output.
func (tw *Writer) Flush() error {
	if err := tw.header(); err != nil {
		return err
	}
	return tw.w.Flush()
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// ErrBadMagic marks a stream that is not a trace.
var ErrBadMagic = errors.New("trace: bad magic")

// Reader decodes events. It tracks the byte offset consumed so far and
// the ordinal of the event being decoded, and stamps both into every
// decode error — a truncated or corrupted stream names the exact spot,
// which is what makes shrinker validity checks and service replay
// rejections debuggable instead of opaque. Decoding allocates nothing:
// operands land in a buffer the Reader owns.
type Reader struct {
	r       io.Reader
	buf     [maxOperandLen]byte
	started bool
	// off is the number of bytes fully consumed from the stream; idx the
	// number of events fully decoded. During Next they locate the event
	// currently being decoded: idx+1 is its 1-based ordinal (matching
	// Replay's "event %d" convention), off its starting byte.
	off int64
	idx int
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Offset returns the number of bytes consumed so far.
func (tr *Reader) Offset() int64 { return tr.off }

// read consumes the next n bytes of the stream into the Reader's buffer,
// charging them to the offset, and fails like io.ReadFull. The returned
// slice is valid until the next read.
func (tr *Reader) read(n int) ([]byte, error) {
	k, err := io.ReadFull(tr.r, tr.buf[:n])
	tr.off += int64(k)
	return tr.buf[:n], err
}

// decodeErr annotates a mid-event failure with the event's 1-based
// ordinal and the byte offset where the event started.
func (tr *Reader) decodeErr(start int64, format string, args ...any) error {
	prefix := fmt.Sprintf("trace: event %d (byte offset %d): ", tr.idx+1, start)
	return fmt.Errorf(prefix+format, args...)
}

// Next decodes one event; io.EOF ends the stream.
func (tr *Reader) Next() (Event, error) {
	if !tr.started {
		m, err := tr.read(len(magic))
		if err != nil {
			if err == io.ErrUnexpectedEOF || (err == io.EOF && tr.off > 0) {
				return Event{}, fmt.Errorf("trace: truncated magic (%d of %d header bytes): %w",
					tr.off, len(magic), io.ErrUnexpectedEOF)
			}
			return Event{}, err
		}
		if [4]byte(m) != magic {
			return Event{}, fmt.Errorf("trace: header %q at byte offset 0: %w", m, ErrBadMagic)
		}
		tr.started = true
	}
	start := tr.off
	opb, err := tr.read(1)
	if err != nil {
		return Event{}, err // io.EOF here is the clean end of stream
	}
	ev := Event{Op: Op(opb[0])}
	if !ev.Op.known() {
		return Event{}, tr.decodeErr(start, "unknown opcode %d", ev.Op)
	}
	operands, err := tr.read(operandLen[ev.Op])
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Event{}, tr.decodeErr(start, "opcode %d truncated after %d bytes: %w",
				ev.Op, tr.off-start, io.ErrUnexpectedEOF)
		}
		return Event{}, tr.decodeErr(start, "opcode %d: %w", ev.Op, err)
	}
	decodeOperands(&ev, operands)
	tr.idx++
	return ev, nil
}

// ReadAll decodes a whole trace stream into its event list.
func ReadAll(r io.Reader) ([]Event, error) {
	tr := NewReader(r)
	var out []Event
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
}

// Encode serializes an event list into the trace wire format (magic
// header included) — the inverse of ReadAll.
func Encode(events []Event) ([]byte, error) {
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	for _, ev := range events {
		if err := tw.Emit(ev); err != nil {
			return nil, err
		}
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReplayResult summarizes one replay.
type ReplayResult struct {
	Events int
	Errors report.Log
}

// replayer applies decoded events to a runtime, tracking the register
// file and frame depth.
type replayer struct {
	run      rt.Runtime
	anchored bool
	regs     map[uint32]vmem.Addr
	frames   int
	res      *ReplayResult
}

func newReplayer(run rt.Runtime, anchored bool) *replayer {
	return &replayer{run: run, anchored: anchored, regs: map[uint32]vmem.Addr{}, res: &ReplayResult{}}
}

// apply executes one event. Trace-level problems (unknown register,
// failed malloc, unbalanced frames) are returned as errors; memory
// violations land in the result log.
func (rp *replayer) apply(ev Event) error {
	rp.res.Events++
	switch ev.Op {
	case OpMalloc:
		p, err := rp.run.Malloc(ev.Size)
		if err != nil {
			return fmt.Errorf("trace: event %d: %w", rp.res.Events, err)
		}
		rp.regs[ev.Reg] = p
	case OpAlloca:
		if rp.frames == 0 {
			return fmt.Errorf("trace: event %d: alloca outside frame", rp.res.Events)
		}
		p, err := rp.run.Alloca(ev.Size)
		if err != nil {
			return fmt.Errorf("trace: event %d: %w", rp.res.Events, err)
		}
		rp.regs[ev.Reg] = p
	case OpFree:
		p, ok := rp.regs[ev.Reg]
		if !ok {
			return fmt.Errorf("trace: event %d: free of unset reg %d", rp.res.Events, ev.Reg)
		}
		rp.res.Errors.Record(rp.run.Free(p))
	case OpAccess:
		base, ok := rp.regs[ev.Reg]
		if !ok {
			return fmt.Errorf("trace: event %d: access through unset reg %d", rp.res.Events, ev.Reg)
		}
		at := report.Read
		if ev.Write {
			at = report.Write
		}
		p := base + vmem.Addr(ev.Off)
		var cerr *report.Error
		if rp.anchored {
			cerr = rp.run.San().CheckAnchored(base, p, uint64(ev.Width), at)
		} else {
			cerr = rp.run.San().CheckAccess(p, uint64(ev.Width), at)
		}
		rp.res.Errors.Record(cerr)
	case OpRange:
		base, ok := rp.regs[ev.Reg]
		if !ok {
			return fmt.Errorf("trace: event %d: range through unset reg %d", rp.res.Events, ev.Reg)
		}
		at := report.Read
		if ev.Write {
			at = report.Write
		}
		l := base + vmem.Addr(ev.Off)
		rp.res.Errors.Record(rp.run.San().CheckRange(l, l+vmem.Addr(ev.Size), at))
	case OpPush:
		rp.run.PushFrame()
		rp.frames++
	case OpPop:
		if rp.frames == 0 {
			return fmt.Errorf("trace: event %d: pop without push", rp.res.Events)
		}
		rp.run.PopFrame()
		rp.frames--
	default:
		return fmt.Errorf("trace: event %d: unknown opcode %d", rp.res.Events, ev.Op)
	}
	return nil
}

// Replay runs a trace against a runtime: allocations fill the register
// file, accesses are checked with the anchored discipline when anchored
// is true (GiantSan, LFP) and bare otherwise (ASan). Trace-level problems
// (unknown register, failed malloc) are returned as an error; memory
// violations land in the result log. Decoding streams: events before a
// malformed one are applied before its decode error is returned.
func Replay(r io.Reader, run rt.Runtime, anchored bool) (*ReplayResult, error) {
	return replay(NewReader(r), run, anchored)
}

// ReplayBytes is Replay over an in-memory trace, read without the
// buffering NewReader adds: already in memory, it needs no copy.
func ReplayBytes(data []byte, run rt.Runtime, anchored bool) (*ReplayResult, error) {
	return replay(&Reader{r: bytes.NewReader(data)}, run, anchored)
}

func replay(tr *Reader, run rt.Runtime, anchored bool) (*ReplayResult, error) {
	rp := newReplayer(run, anchored)
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			return rp.res, nil
		}
		if err != nil {
			return nil, err
		}
		if err := rp.apply(ev); err != nil {
			return nil, err
		}
	}
}

// ReplayEvents replays an already-decoded event list. It is the
// shrinker's inner loop: candidate subsequences are replayed directly,
// without a serialize/parse round trip per candidate. Semantics are
// identical to Replay over the encoding of the same events.
func ReplayEvents(events []Event, run rt.Runtime, anchored bool) (*ReplayResult, error) {
	rp := newReplayer(run, anchored)
	for _, ev := range events {
		if err := rp.apply(ev); err != nil {
			return nil, err
		}
	}
	return rp.res, nil
}
