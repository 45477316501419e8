package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
)

// maxBodyPresize caps the buffer readRequest allocates up front from a
// Content-Length header. The header is the client's claim, so a false one
// must not make the server allocate the whole body cap before a byte
// arrives; a longer body grows the buffer as it is read.
const maxBodyPresize = 1 << 20

// readRequest reads a POST /sessions body to EOF into one buffer,
// presized from sizeHint (the request's Content-Length, <= 0 when
// unknown), and decodes it. A body in canonical form (see
// decodeCanonical) is decoded in one pass; any other body goes to
// encoding/json with unknown fields disallowed, so every error message
// and every verdict on unusual input is encoding/json's.
// FuzzDecodeRequest holds the two paths equal.
func readRequest(r io.Reader, sizeHint int64) (Request, error) {
	// MinRead of slack lets ReadFrom see EOF without growing the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(sizeHint, 0), maxBodyPresize)+bytes.MinRead))
	if _, err := buf.ReadFrom(r); err != nil {
		return Request{}, err
	}
	body := buf.Bytes()
	if req, ok := decodeCanonical(body); ok {
		return req, nil
	}
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// decodeCanonical decodes b when it is in the form json.Marshal writes for
// a Request of plain values, and reports whether it was: optional JSON
// whitespace, then one object whose keys are exactly Request's json tag
// names, whose strings are printable ASCII with no escape, and whose
// integers match -?(0|[1-9][0-9]{0,17}). A repeated key takes its last
// value, and bytes after the closing brace are ignored, both as
// json.Decoder does. On false, the caller must discard req.
func decodeCanonical(b []byte) (req Request, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return req, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return req, true
	}
	var key []byte
	for {
		if key, i, ok = quoted(b, i); !ok {
			return req, false
		}
		if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
			return req, false
		}
		i = skipSpace(b, i+1)
		switch string(key) {
		case "workload":
			req.Workload, i, ok = stringValue(b, i)
		case "trace_b64":
			req.TraceB64, i, ok = stringValue(b, i)
		case "sanitizer":
			req.Sanitizer, i, ok = stringValue(b, i)
		case "tier":
			req.Tier, i, ok = stringValue(b, i)
		case "tenant":
			req.Tenant, i, ok = stringValue(b, i)
		case "scale":
			var v int64
			v, i, ok = intValue(b, i)
			req.Scale = int(v)
			ok = ok && int64(req.Scale) == v // int is 32 bits on some targets
		case "deadline_ns":
			req.DeadlineNs, i, ok = intValue(b, i)
		default:
			return req, false
		}
		if i = skipSpace(b, i); !ok || i == len(b) {
			return req, false
		}
		switch b[i] {
		case '}':
			return req, true
		case ',':
			i = skipSpace(b, i+1)
		default:
			return req, false
		}
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// quoted returns the bytes of the string starting at b[i] up to its first
// '"', and the index after that quote. A key needs no more: only the
// exact tag names are accepted.
func quoted(b []byte, i int) ([]byte, int, bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	n := bytes.IndexByte(b[i+1:], '"')
	if n < 0 {
		return nil, i, false
	}
	return b[i+1 : i+1+n], i + 2 + n, true
}

// stringValue decodes the string starting at b[i] when it holds only
// printable ASCII and no backslash, so its JSON text is its value.
func stringValue(b []byte, i int) (string, int, bool) {
	s, i, ok := quoted(b, i)
	if !ok || !plain(s) {
		return "", i, false
	}
	return string(s), i, true
}

// intValue decodes the integer starting at b[i] when it is written as
// -?(0|[1-9][0-9]{0,17}); 18 digits cannot overflow an int64. A fraction
// or exponent stops the digits and is refused by the caller, which then
// sees neither ',' nor '}'.
func intValue(b []byte, i int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	digits := b[start:i]
	if len(digits) == 0 || len(digits) > 18 || (digits[0] == '0' && len(digits) > 1) {
		return 0, i, false
	}
	var v int64
	for _, c := range digits {
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, i, true
}

const (
	lsbs = 0x0101010101010101
	msbs = 0x8080808080808080
)

// plain reports whether every byte of s is printable ASCII (0x20–0x7e)
// other than '\\'. It tests eight bytes per step: in each word, a byte's
// high bit ends up set in bad when the byte is >= 0x80, below 0x20,
// '\\' or 0x7f. The subtractions borrow only past a byte that is already
// flagged, so the test has no false positives.
func plain(s []byte) bool {
	var bad uint64
	for ; len(s) >= 8; s = s[8:] {
		bad |= unplain(binary.LittleEndian.Uint64(s))
	}
	if len(s) > 0 {
		tail := [8]byte{' ', ' ', ' ', ' ', ' ', ' ', ' ', ' '}
		copy(tail[:], s)
		bad |= unplain(binary.LittleEndian.Uint64(tail[:]))
	}
	return bad&msbs == 0
}

func unplain(w uint64) uint64 {
	bs, del := w^(lsbs*'\\'), w^(lsbs*0x7f)
	return w | (w-lsbs*0x20)&^w | (bs-lsbs)&^bs | (del-lsbs)&^del
}
