package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// jsonDecode is the reference decode of a session request body: the one
// the handler used before the canonical path, and the one readRequest
// falls back to.
func jsonDecode(body []byte) (Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// replayBody is a canonical replay request whose trace_b64 is the base64
// of n deterministic bytes.
func replayBody(n int) []byte {
	raw := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(raw)
	return []byte(`{"trace_b64":"` + base64.StdEncoding.EncodeToString(raw) + `","sanitizer":"giantsan"}`)
}

// decodeCases are the edge cases of the canonical form. canonical says
// which path must decode the body; the result must be encoding/json's
// either way.
var decodeCases = []struct {
	name, body string
	canonical  bool
}{
	{"replay", `{"trace_b64":"AAECAw==","sanitizer":"giantsan"}`, true},
	{"workload", `{"workload":"523.xalancbmk_r","tier":"full","scale":2,"deadline_ns":50000000,"tenant":"t-1"}`, true},
	{"empty object", `{}`, true},
	{"empty string", `{"workload":""}`, true},
	{"whitespace everywhere", " \t\n\r{ \"workload\" :\t\"505.mcf_r\" ,\n\"scale\"\r: 3 ,\"sanitizer\": \"asan\" } \n", true},
	{"duplicate keys", `{"scale":1,"workload":"a","scale":2,"workload":"b"}`, true},
	{"trailing bytes", `{"workload":"505.mcf_r"} trailing {"scale":`, true},
	{"negative zero", `{"scale":-0}`, true},
	{"18 digits", `{"deadline_ns":-999999999999999999}`, true},
	{"unicode escape", `{"workload":"\u0041"}`, false},
	{"slash escape", `{"trace_b64":"AA\/B"}`, false},
	{"quote escape", `{"tenant":"a\"b"}`, false},
	{"folded key Workload", `{"Workload":"505.mcf_r"}`, false},
	{"folded key TRACE_B64", `{"TRACE_B64":"AAECAw=="}`, false},
	{"exact then folded duplicate", `{"workload":"a","WORKLOAD":"b"}`, false},
	{"null string", `{"workload":null}`, false},
	{"null int", `{"scale":null}`, false},
	{"unknown field", `{"workload":"505.mcf_r","bogus":1}`, false},
	{"leading zero", `{"scale":01}`, false},
	{"exponent", `{"scale":1e3}`, false},
	{"fraction", `{"scale":1.0}`, false},
	{"2^63", `{"deadline_ns":9223372036854775808}`, false},
	{"19 digits in range", `{"deadline_ns":1000000000000000000}`, false},
	{"plus sign", `{"scale":+1}`, false},
	{"bare minus", `{"scale":-}`, false},
	{"non-ASCII", `{"tenant":"é"}`, false},
	{"invalid UTF-8", "{\"tenant\":\"\xff\xfe\"}", false},
	{"DEL byte", "{\"tenant\":\"a\x7f\"}", false},
	{"control byte", "{\"tenant\":\"a\tb\"}", false},
	{"string for int", `{"scale":"1"}`, false},
	{"int for string", `{"workload":1}`, false},
	{"nested object", `{"workload":{"a":1}}`, false},
	{"trailing comma", `{"scale":1,}`, false},
	{"missing colon", `{"scale" 1}`, false},
	{"unterminated", `{"workload":"a"`, false},
	{"unterminated string", `{"workload":"a`, false},
	{"empty body", ``, false},
	{"whitespace only", " \n", false},
	{"top-level null", `null`, false},
	{"array", `[{"workload":"a"}]`, false},
}

// TestDecodeRequestEdgeCases: each edge case takes the path the table
// names, and readRequest returns encoding/json's request and error.
func TestDecodeRequestEdgeCases(t *testing.T) {
	for _, tc := range decodeCases {
		body := []byte(tc.body)
		if _, ok := decodeCanonical(body); ok != tc.canonical {
			t.Errorf("%s: canonical path took it = %v, want %v", tc.name, ok, tc.canonical)
		}
		got, gotErr := readRequest(bytes.NewReader(body), int64(len(body)))
		want, wantErr := jsonDecode(body)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: decoded %+v, %v; encoding/json %+v, %v", tc.name, got, gotErr, want, wantErr)
		}
	}
}

// plainText is printable ASCII free of the bytes json.Marshal escapes:
// '"' and '\\', and '<', '>' and '&' as HTML.
type plainText string

func (plainText) Generate(r *rand.Rand, size int) reflect.Value {
	const alphabet = " !#$%'()*+,-./0123456789:;=?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[]^_`abcdefghijklmnopqrstuvwxyz{|}~"
	b := make([]byte, r.Intn(4*size+1))
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return reflect.ValueOf(plainText(b))
}

// shortInt is an int64 of at most 18 digits.
type shortInt int64

func (shortInt) Generate(r *rand.Rand, size int) reflect.Value {
	const lim = 1e18 - 1
	return reflect.ValueOf(shortInt(r.Int63n(2*lim+1) - lim))
}

// TestMarshalledRequestsAreCanonical: json.Marshal of any request with
// plain values decodes on the canonical path, to the same request. It is
// what clients and a federation front-end's forward send, so a change
// that sends it to the fallback fails here, not only in a profile.
func TestMarshalledRequestsAreCanonical(t *testing.T) {
	prop := func(workload, traceB64, sanitizer, tier, tenant plainText, scale int32, deadline shortInt) bool {
		want := Request{
			Workload: string(workload), TraceB64: string(traceB64), Sanitizer: string(sanitizer),
			Tier: string(tier), Tenant: string(tenant), Scale: int(scale), DeadlineNs: int64(deadline),
		}
		body, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := decodeCanonical(body)
		if !ok || got != want {
			t.Logf("%s: canonical %v, decoded %+v", body, ok, got)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestCanonicalRequestDecodeAllocations: reading and decoding a
// canonical replay request allocates the body buffer and one string per
// field, nothing per byte or per token.
func TestCanonicalRequestDecodeAllocations(t *testing.T) {
	body := replayBody(3 << 10)
	r := bytes.NewReader(body)
	n := testing.AllocsPerRun(50, func() {
		r.Reset(body)
		if _, err := readRequest(r, int64(len(body))); err != nil {
			t.Fatal(err)
		}
	})
	if n > 3 { // body, trace_b64, sanitizer
		t.Errorf("%v allocations per canonical replay request, want at most 3", n)
	}
}

// FuzzDecodeRequest: for any body, the handler's read-and-decode path
// gives the request and the error string that encoding/json gives.
//
//	go test -run '^$' -fuzz '^FuzzDecodeRequest$' -fuzztime 10s ./internal/service
func FuzzDecodeRequest(f *testing.F) {
	for _, tc := range decodeCases {
		f.Add([]byte(tc.body))
	}
	f.Add(replayBody(300))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := readRequest(bytes.NewReader(body), int64(len(body)))
		want, wantErr := jsonDecode(body)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: decoded %+v, %v; encoding/json %+v, %v", body, got, gotErr, want, wantErr)
		}
	})
}

// BenchmarkDecodeRequest decodes a canonical replay request with a 4 KiB
// trace_b64 through the handler's read-and-decode path and through the
// encoding/json decoder it falls back to.
//
//	go test ./internal/service -run '^$' -bench DecodeRequest -benchmem
func BenchmarkDecodeRequest(b *testing.B) {
	body := replayBody(3 << 10)
	r := bytes.NewReader(body)
	for _, path := range []struct {
		name   string
		decode func() (Request, error)
	}{
		{"onepass", func() (Request, error) { return readRequest(r, int64(len(body))) }},
		{"json", func() (Request, error) {
			var req Request
			dec := json.NewDecoder(r)
			dec.DisallowUnknownFields()
			err := dec.Decode(&req)
			return req, err
		}},
	} {
		b.Run(path.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Reset(body)
				if req, err := path.decode(); err != nil || len(req.TraceB64) != 4<<10 {
					b.Fatalf("decode: %v", err)
				}
			}
		})
	}
}
