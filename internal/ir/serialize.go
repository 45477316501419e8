package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Program serialization: a textual s-expression form for ir.Prog, the
// on-disk format of fuzzing corpora and repro artifacts. The encoding is
// canonical (Encode of equal programs yields identical bytes, so corpus
// entries can be deduplicated and content-addressed by hashing the
// encoding) and self-contained (Decode(Encode(p)) reproduces p exactly,
// which the round-trip suite proves over the whole progen wheel).
//
// Grammar, whitespace-insensitive:
//
//	prog  = "(" "prog" name stmt* ")"
//	stmt  = "(" head ... ")"         one form per statement kind
//	expr  = "nil" | "(" ("const" int | "var" name |
//	        "rand" expr | "bin" op expr expr) ")"
//	name  = atom | quoted string
//
// Decode reports malformed input with the byte offset of the offending
// token, the same convention the trace codec uses for event streams.

// Encode renders p in the canonical text form: one statement per line,
// nested bodies indented two spaces.
func Encode(p *Prog) []byte {
	var b strings.Builder
	b.WriteString("(prog ")
	writeName(&b, p.Name)
	writeBody(&b, p.Body, 1)
	b.WriteString(")\n")
	return []byte(b.String())
}

func writeBody(b *strings.Builder, stmts []Stmt, depth int) {
	for _, s := range stmts {
		b.WriteString("\n")
		b.WriteString(strings.Repeat("  ", depth))
		writeStmt(b, s, depth)
	}
}

func writeStmt(b *strings.Builder, s Stmt, depth int) {
	switch n := s.(type) {
	case *Decl:
		b.WriteString("(decl ")
		writeName(b, n.Name)
		b.WriteString(" ")
		writeExpr(b, n.Init)
		b.WriteString(")")
	case *Assign:
		b.WriteString("(assign ")
		writeName(b, n.Name)
		b.WriteString(" ")
		writeExpr(b, n.Val)
		b.WriteString(")")
	case *Malloc:
		b.WriteString("(malloc ")
		writeName(b, n.Dst)
		b.WriteString(" ")
		writeExpr(b, n.Size)
		b.WriteString(")")
	case *Free:
		b.WriteString("(free ")
		writeName(b, n.Ptr)
		b.WriteString(")")
	case *Alloca:
		b.WriteString("(alloca ")
		writeName(b, n.Dst)
		b.WriteString(" ")
		writeExpr(b, n.Size)
		b.WriteString(")")
	case *Frame:
		b.WriteString("(frame")
		writeBody(b, n.Body, depth+1)
		b.WriteString(")")
	case *Load:
		fmt.Fprintf(b, "(load ")
		writeName(b, n.Dst)
		b.WriteString(" ")
		writeName(b, n.Base)
		b.WriteString(" ")
		writeExpr(b, n.Idx)
		fmt.Fprintf(b, " %d %d %d)", n.Scale, n.Off, n.Size)
	case *Store:
		b.WriteString("(store ")
		writeName(b, n.Base)
		b.WriteString(" ")
		writeExpr(b, n.Idx)
		fmt.Fprintf(b, " %d %d %d ", n.Scale, n.Off, n.Size)
		writeExpr(b, n.Val)
		b.WriteString(")")
	case *Memset:
		b.WriteString("(memset ")
		writeName(b, n.Base)
		b.WriteString(" ")
		writeExpr(b, n.Off)
		b.WriteString(" ")
		writeExpr(b, n.Val)
		b.WriteString(" ")
		writeExpr(b, n.Len)
		b.WriteString(")")
	case *Memcpy:
		b.WriteString("(memcpy ")
		writeName(b, n.Dst)
		b.WriteString(" ")
		writeName(b, n.Src)
		b.WriteString(" ")
		writeExpr(b, n.DOff)
		b.WriteString(" ")
		writeExpr(b, n.SOff)
		b.WriteString(" ")
		writeExpr(b, n.Len)
		b.WriteString(")")
	case *Loop:
		b.WriteString("(loop ")
		writeName(b, n.Var)
		b.WriteString(" ")
		writeExpr(b, n.N)
		if n.Bounded {
			b.WriteString(" bounded")
		} else {
			b.WriteString(" unbounded")
		}
		if n.Reverse {
			b.WriteString(" rev")
		} else {
			b.WriteString(" fwd")
		}
		writeBody(b, n.Body, depth+1)
		b.WriteString(")")
	case *If:
		b.WriteString("(if ")
		writeExpr(b, n.Cond)
		b.WriteString("\n")
		b.WriteString(strings.Repeat("  ", depth+1))
		b.WriteString("(then")
		writeBody(b, n.Then, depth+2)
		b.WriteString(")\n")
		b.WriteString(strings.Repeat("  ", depth+1))
		b.WriteString("(else")
		writeBody(b, n.Else, depth+2)
		b.WriteString("))")
	case *Call:
		b.WriteString("(call")
		writeBody(b, n.Body, depth+1)
		b.WriteString(")")
	case *Opaque:
		b.WriteString("(opaque)")
	default:
		// Unreachable for well-formed trees; make the breakage loud in the
		// output rather than silently dropping the statement.
		fmt.Fprintf(b, "(unknown %T)", s)
	}
}

var binOpName = map[BinOp]string{
	Add: "add", Sub: "sub", Mul: "mul", Div: "div",
	Mod: "mod", And: "and", Xor: "xor", Shr: "shr",
}

var binOpByName = func() map[string]BinOp {
	m := make(map[string]BinOp, len(binOpName))
	for op, s := range binOpName {
		m[s] = op
	}
	return m
}()

func writeExpr(b *strings.Builder, e Expr) {
	switch n := e.(type) {
	case nil:
		b.WriteString("nil")
	case Const:
		fmt.Fprintf(b, "(const %d)", int64(n))
	case Var:
		b.WriteString("(var ")
		writeName(b, string(n))
		b.WriteString(")")
	case Rand:
		b.WriteString("(rand ")
		writeExpr(b, n.N)
		b.WriteString(")")
	case Bin:
		fmt.Fprintf(b, "(bin %s ", binOpName[n.Op])
		writeExpr(b, n.L)
		b.WriteString(" ")
		writeExpr(b, n.R)
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "(unknown %T)", e)
	}
}

// writeName emits identifier-safe names bare and quotes anything else.
func writeName(b *strings.Builder, s string) {
	if nameIsAtom(s) {
		b.WriteString(s)
		return
	}
	b.WriteString(strconv.Quote(s))
}

func nameIsAtom(s string) bool {
	if s == "" || s == "nil" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_', c == '-', c == '.':
		default:
			return false
		}
	}
	return true
}

// --- decoding ---

type tokKind int

const (
	tEOF tokKind = iota
	tLParen
	tRParen
	tAtom   // bare identifier or number
	tString // quoted
)

type token struct {
	kind tokKind
	text string // unquoted for tString
	off  int    // byte offset of the token's first character
}

type lexer struct {
	src []byte
	pos int
}

func errAt(off int, format string, args ...any) error {
	return fmt.Errorf("ir: offset %d: %s", off, fmt.Sprintf(format, args...))
}

func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			lx.pos++
			continue
		}
		break
	}
	if lx.pos >= len(lx.src) {
		return token{kind: tEOF, off: lx.pos}, nil
	}
	start := lx.pos
	switch c := lx.src[lx.pos]; c {
	case '(':
		lx.pos++
		return token{kind: tLParen, off: start}, nil
	case ')':
		lx.pos++
		return token{kind: tRParen, off: start}, nil
	case '"':
		end := lx.pos + 1
		for end < len(lx.src) {
			if lx.src[end] == '\\' {
				end += 2
				continue
			}
			if lx.src[end] == '"' {
				break
			}
			end++
		}
		if end >= len(lx.src) {
			return token{}, errAt(start, "unterminated string")
		}
		raw := string(lx.src[start : end+1])
		s, err := strconv.Unquote(raw)
		if err != nil {
			return token{}, errAt(start, "bad string literal %s: %v", raw, err)
		}
		lx.pos = end + 1
		return token{kind: tString, text: s, off: start}, nil
	default:
		end := lx.pos
		for end < len(lx.src) {
			switch b := lx.src[end]; b {
			case ' ', '\t', '\n', '\r', '(', ')', '"':
				goto done
			default:
				_ = b
				end++
			}
		}
	done:
		if end == start {
			return token{}, errAt(start, "unexpected character %q", lx.src[start])
		}
		lx.pos = end
		return token{kind: tAtom, text: string(lx.src[start:end]), off: start}, nil
	}
}

// maxNesting caps how deeply statements and expressions may nest. The
// parser recurses once per level and Go cannot recover from a stack
// overflow, so input nested deep enough to exhaust the stack (a corrupt
// corpus file, a hostile artifact) must be refused as malformed before
// it gets there. Generated programs nest a handful of levels.
const maxNesting = 1000

type parser struct {
	lx     *lexer
	peeked *token
	depth  int // statements and expressions currently open
}

// enter opens one nesting level at the token at off; the caller closes
// it with p.depth--.
func (p *parser) enter(off int) error {
	p.depth++
	if p.depth > maxNesting {
		return errAt(off, "nesting deeper than %d levels", maxNesting)
	}
	return nil
}

func (p *parser) next() (token, error) {
	if p.peeked != nil {
		t := *p.peeked
		p.peeked = nil
		return t, nil
	}
	return p.lx.next()
}

func (p *parser) peek() (token, error) {
	if p.peeked == nil {
		t, err := p.lx.next()
		if err != nil {
			return token{}, err
		}
		p.peeked = &t
	}
	return *p.peeked, nil
}

func (p *parser) expect(kind tokKind, what string) (token, error) {
	t, err := p.next()
	if err != nil {
		return token{}, err
	}
	if t.kind != kind {
		return token{}, errAt(t.off, "expected %s", what)
	}
	return t, nil
}

// name accepts a bare atom or a quoted string.
func (p *parser) name(what string) (string, error) {
	t, err := p.next()
	if err != nil {
		return "", err
	}
	switch t.kind {
	case tAtom:
		return t.text, nil
	case tString:
		return t.text, nil
	default:
		return "", errAt(t.off, "expected %s name", what)
	}
}

func (p *parser) integer(what string) (int64, error) {
	t, err := p.expect(tAtom, what)
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, errAt(t.off, "bad %s %q", what, t.text)
	}
	return n, nil
}

// Decode parses the canonical text form back into a program. Errors carry
// the byte offset of the offending token.
func Decode(data []byte) (*Prog, error) {
	p := &parser{lx: &lexer{src: data}}
	if _, err := p.expect(tLParen, "'('"); err != nil {
		return nil, err
	}
	head, err := p.expect(tAtom, "'prog'")
	if err != nil {
		return nil, err
	}
	if head.text != "prog" {
		return nil, errAt(head.off, "expected 'prog', got %q", head.text)
	}
	name, err := p.name("program")
	if err != nil {
		return nil, err
	}
	body, err := p.stmts()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tRParen, "')'"); err != nil {
		return nil, err
	}
	if t, err := p.next(); err != nil {
		return nil, err
	} else if t.kind != tEOF {
		return nil, errAt(t.off, "trailing input after program")
	}
	return &Prog{Name: name, Body: body}, nil
}

// stmts parses statements until the closing paren of the enclosing list,
// which it leaves unconsumed.
func (p *parser) stmts() ([]Stmt, error) {
	var out []Stmt
	for {
		t, err := p.peek()
		if err != nil {
			return nil, err
		}
		if t.kind == tRParen || t.kind == tEOF {
			return out, nil
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

func (p *parser) stmt() (Stmt, error) {
	open, err := p.expect(tLParen, "'(' starting a statement")
	if err != nil {
		return nil, err
	}
	if err := p.enter(open.off); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	head, err := p.expect(tAtom, "statement head")
	if err != nil {
		return nil, err
	}
	var s Stmt
	switch head.text {
	case "decl", "assign":
		name, err := p.name("variable")
		if err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if head.text == "decl" {
			s = &Decl{Name: name, Init: e}
		} else {
			s = &Assign{Name: name, Val: e}
		}
	case "malloc", "alloca":
		dst, err := p.name("destination")
		if err != nil {
			return nil, err
		}
		size, err := p.expr()
		if err != nil {
			return nil, err
		}
		if head.text == "malloc" {
			s = &Malloc{Dst: dst, Size: size}
		} else {
			s = &Alloca{Dst: dst, Size: size}
		}
	case "free":
		ptr, err := p.name("pointer")
		if err != nil {
			return nil, err
		}
		s = &Free{Ptr: ptr}
	case "frame":
		body, err := p.stmts()
		if err != nil {
			return nil, err
		}
		s = &Frame{Body: body}
	case "load":
		dst, err := p.name("destination")
		if err != nil {
			return nil, err
		}
		base, err := p.name("base")
		if err != nil {
			return nil, err
		}
		idx, err := p.expr()
		if err != nil {
			return nil, err
		}
		scale, err := p.integer("scale")
		if err != nil {
			return nil, err
		}
		off, err := p.integer("offset")
		if err != nil {
			return nil, err
		}
		size, err := p.integer("size")
		if err != nil {
			return nil, err
		}
		s = &Load{Dst: dst, Base: base, Idx: idx, Scale: scale, Off: off, Size: int(size)}
	case "store":
		base, err := p.name("base")
		if err != nil {
			return nil, err
		}
		idx, err := p.expr()
		if err != nil {
			return nil, err
		}
		scale, err := p.integer("scale")
		if err != nil {
			return nil, err
		}
		off, err := p.integer("offset")
		if err != nil {
			return nil, err
		}
		size, err := p.integer("size")
		if err != nil {
			return nil, err
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		s = &Store{Base: base, Idx: idx, Scale: scale, Off: off, Size: int(size), Val: val}
	case "memset":
		base, err := p.name("base")
		if err != nil {
			return nil, err
		}
		off, err := p.expr()
		if err != nil {
			return nil, err
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		length, err := p.expr()
		if err != nil {
			return nil, err
		}
		s = &Memset{Base: base, Off: off, Val: val, Len: length}
	case "memcpy":
		dst, err := p.name("destination")
		if err != nil {
			return nil, err
		}
		src, err := p.name("source")
		if err != nil {
			return nil, err
		}
		doff, err := p.expr()
		if err != nil {
			return nil, err
		}
		soff, err := p.expr()
		if err != nil {
			return nil, err
		}
		length, err := p.expr()
		if err != nil {
			return nil, err
		}
		s = &Memcpy{Dst: dst, Src: src, DOff: doff, SOff: soff, Len: length}
	case "loop":
		v, err := p.name("loop variable")
		if err != nil {
			return nil, err
		}
		n, err := p.expr()
		if err != nil {
			return nil, err
		}
		bt, err := p.expect(tAtom, "'bounded' or 'unbounded'")
		if err != nil {
			return nil, err
		}
		if bt.text != "bounded" && bt.text != "unbounded" {
			return nil, errAt(bt.off, "expected 'bounded' or 'unbounded', got %q", bt.text)
		}
		dt, err := p.expect(tAtom, "'fwd' or 'rev'")
		if err != nil {
			return nil, err
		}
		if dt.text != "fwd" && dt.text != "rev" {
			return nil, errAt(dt.off, "expected 'fwd' or 'rev', got %q", dt.text)
		}
		body, err := p.stmts()
		if err != nil {
			return nil, err
		}
		s = &Loop{Var: v, N: n, Bounded: bt.text == "bounded", Reverse: dt.text == "rev", Body: body}
	case "if":
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		then, err := p.branch("then")
		if err != nil {
			return nil, err
		}
		els, err := p.branch("else")
		if err != nil {
			return nil, err
		}
		s = &If{Cond: cond, Then: then, Else: els}
	case "call":
		body, err := p.stmts()
		if err != nil {
			return nil, err
		}
		s = &Call{Body: body}
	case "opaque":
		s = &Opaque{}
	default:
		return nil, errAt(head.off, "unknown statement %q", head.text)
	}
	if _, err := p.expect(tRParen, "')' closing "+head.text); err != nil {
		return nil, err
	}
	return s, nil
}

// branch parses "(" label stmt* ")" for if arms.
func (p *parser) branch(label string) ([]Stmt, error) {
	if _, err := p.expect(tLParen, "'(' starting "+label+" branch"); err != nil {
		return nil, err
	}
	head, err := p.expect(tAtom, "'"+label+"'")
	if err != nil {
		return nil, err
	}
	if head.text != label {
		return nil, errAt(head.off, "expected %q branch, got %q", label, head.text)
	}
	body, err := p.stmts()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tRParen, "')' closing "+label); err != nil {
		return nil, err
	}
	return body, nil
}

func (p *parser) expr() (Expr, error) {
	t, err := p.next()
	if err != nil {
		return nil, err
	}
	switch t.kind {
	case tAtom:
		if t.text == "nil" {
			return nil, nil
		}
		return nil, errAt(t.off, "expected expression, got %q", t.text)
	case tLParen:
	default:
		return nil, errAt(t.off, "expected expression")
	}
	if err := p.enter(t.off); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	head, err := p.expect(tAtom, "expression head")
	if err != nil {
		return nil, err
	}
	var e Expr
	switch head.text {
	case "const":
		n, err := p.integer("constant")
		if err != nil {
			return nil, err
		}
		e = Const(n)
	case "var":
		name, err := p.name("variable")
		if err != nil {
			return nil, err
		}
		e = Var(name)
	case "rand":
		n, err := p.expr()
		if err != nil {
			return nil, err
		}
		e = Rand{N: n}
	case "bin":
		opTok, err := p.expect(tAtom, "operator")
		if err != nil {
			return nil, err
		}
		op, ok := binOpByName[opTok.text]
		if !ok {
			return nil, errAt(opTok.off, "unknown operator %q", opTok.text)
		}
		l, err := p.expr()
		if err != nil {
			return nil, err
		}
		r, err := p.expr()
		if err != nil {
			return nil, err
		}
		e = Bin{Op: op, L: l, R: r}
	default:
		return nil, errAt(head.off, "unknown expression %q", head.text)
	}
	if _, err := p.expect(tRParen, "')' closing "+head.text); err != nil {
		return nil, err
	}
	return e, nil
}
