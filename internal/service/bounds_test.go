package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// spaces is an endless stream of JSON whitespace, so a test can send a
// body of any length without holding it in memory.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// paddedBody streams n bytes of whitespace followed by tail.
func paddedBody(n int64, tail string) io.Reader {
	return io.MultiReader(io.LimitReader(spaces{}, n), strings.NewReader(tail))
}

// TestSessionBodyBounded: POST /sessions reads at most maxSessionBody
// bytes. A streamed body past the cap is refused with a structured 413
// before the server buffers it all, while a valid request padded to just
// under the cap still decodes and runs. The whole body counts, bytes after
// the request object too, and a Content-Length header far above the bytes
// sent does not make the server allocate for it.
func TestSessionBodyBounded(t *testing.T) {
	eng := New(Config{Workers: 1})
	defer eng.Close()
	srv := NewServer(eng)
	serve := func(body io.Reader) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sessions", body))
		return rec
	}

	over := serve(paddedBody(maxSessionBody+1<<20, `{"workload":"`+stressWorkload+`"}`))
	if over.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413 (%s)", over.Code, over.Body.Bytes())
	}
	var eb errorBody
	if err := json.Unmarshal(over.Body.Bytes(), &eb); err != nil || !strings.Contains(eb.Error, "exceeds") {
		t.Fatalf("oversize body: error body %q not structured", over.Body.Bytes())
	}

	req := `{"workload":"` + stressWorkload + `"}`
	under := serve(paddedBody(maxSessionBody-int64(len(req)), req))
	if under.Code != http.StatusOK {
		t.Fatalf("body at the cap: status %d, want 200 (%s)", under.Code, under.Body.Bytes())
	}

	trailing := serve(io.MultiReader(strings.NewReader(req), io.LimitReader(spaces{}, maxSessionBody)))
	if trailing.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("request padded past the cap: status %d, want 413 (%s)", trailing.Code, trailing.Body.Bytes())
	}

	small := `{"workload":"` + stressWorkload + `","sanitizer":"giantsan","tenant":"t-1"}`
	claim := func() *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, "/sessions", strings.NewReader(small))
		r.ContentLength = 60 << 20
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		return rec
	}
	claim() // warm the arena pool, so the measured session allocates only per request
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lied := claim()
	runtime.ReadMemStats(&after)
	if lied.Code != http.StatusOK {
		t.Fatalf("%d-byte body claiming 60 MiB: status %d, want 200 (%s)", len(small), lied.Code, lied.Body.Bytes())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
		t.Errorf("%d-byte body claiming 60 MiB: %d bytes allocated, want under 4 MiB", len(small), grew)
	}
}

// TestScrapeBounded: the federating front-end reads at most
// maxScrapeBytes of a backend's /metrics. An oversize exposition counts as
// a failed scrape and contributes nothing to the aggregate; one at the cap
// federates normally.
func TestScrapeBounded(t *testing.T) {
	exposition := func(n int) string {
		const sample = "gsan_sessions_started_total 3\n"
		pad := strings.Repeat("#", n-len(sample)-1) + "\n"
		return pad + sample
	}
	for _, tc := range []struct {
		name   string
		size   int
		failed uint64
	}{
		{"at cap", maxScrapeBytes, 0},
		{"over cap", maxScrapeBytes + 1, 1},
	} {
		body := exposition(tc.size)
		backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/metrics" {
				io.WriteString(w, body)
				return
			}
			w.WriteHeader(http.StatusOK)
		}))
		rb, err := NewRemoteBackend(testFedConfig(BackendMember{Name: "m0", URL: backend.URL}))
		if err != nil {
			t.Fatalf("%s: NewRemoteBackend: %v", tc.name, err)
		}
		var out bytes.Buffer
		rb.WriteMetrics(&out)
		rb.Close()
		backend.Close()
		if got := rb.scrapeFailed.Load(); got != tc.failed {
			t.Errorf("%s: scrape failures = %d, want %d", tc.name, got, tc.failed)
		}
		federated := strings.Contains(out.String(), "gsan_sessions_started_total 3")
		if federated != (tc.failed == 0) {
			t.Errorf("%s: aggregate federated = %v, want %v", tc.name, federated, tc.failed == 0)
		}
	}
}
