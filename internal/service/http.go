package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"giantsan/internal/workload"
)

// Backend is the session surface the HTTP layer serves: a single Engine
// or a federating RemoteBackend — the handlers cannot tell them apart.
type Backend interface {
	Submit(Request) (*Response, error)
	WriteMetrics(io.Writer)
	// Draining reports whether a graceful drain has begun: /healthz turns
	// 503 so routers stop sending sessions that would only be refused.
	Draining() bool
	// Close drains the backend: queued and running sessions finish, new
	// ones are refused.
	Close()
}

// Server is the HTTP/JSON front-end over a Backend (the gsan -serve
// surface):
//
//	POST /sessions  — run one session; body is a Request, reply a Response
//	GET  /metrics   — Prometheus text exposition of the engine counters
//	                  (federated over the backends on a front-end)
//	GET  /workloads — the runnable workload IDs, one JSON array
//	GET  /healthz   — liveness probe
//
// Admission control maps onto status codes: 429 (queue full, with
// Retry-After), 503 (draining), 400 (malformed request). A tiered
// request (tier: full|elim|cheap|sampled) sees 429 only as a last
// resort: under load the engine degrades it to a cheaper rung first, and
// the reply's tier/requested_tier/downgraded fields say what actually
// ran. A session that
// runs always answers 200, whatever it detected: memory-error reports are
// the service's product, and even a panicked-and-isolated session reports
// its own failure in-band as status "error".
type Server struct {
	backend Backend
	eng     *Engine // nil on a federation front-end
	mux     *http.ServeMux
}

// NewServer wraps a single engine in the HTTP surface.
func NewServer(eng *Engine) *Server {
	s := newServer(eng)
	s.eng = eng
	return s
}

// NewFederatedServer wraps a remote-backend router in the same HTTP
// surface: sessions proxy to backend processes by tenant key, /metrics
// federates the backends' scrapes.
func NewFederatedServer(rb *RemoteBackend) *Server { return newServer(rb) }

func newServer(b Backend) *Server {
	s := &Server{backend: b, mux: http.NewServeMux()}
	s.mux.HandleFunc("/sessions", s.handleSessions)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/workloads", s.handleWorkloads)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Engine returns the wrapped engine, or nil for a federation front-end
// (use Close for shutdown wiring; it drains either backend).
func (s *Server) Engine() *Engine { return s.eng }

// Close drains the backend.
func (s *Server) Close() { s.backend.Close() }

// writeJSON writes v as one compact JSON line: replies are read by
// programs, and indenting them cost 7% of a replay session's CPU.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// maxSessionBody caps a POST /sessions body, all of it: bytes after the
// request object count too. The largest in-repo trace recording
// (500.perlbench_r, 30.1 MB) is about 40 MB once base64-encoded into a
// replay request, so 64 MiB admits every real session while bounding what
// one request can make the server buffer.
const maxSessionBody = 64 << 20

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{"POST a session request"})
		return
	}
	req, err := readRequest(http.MaxBytesReader(w, r.Body, maxSessionBody), r.ContentLength)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{"request body exceeds " + strconv.FormatInt(tooBig.Limit, 10) + " bytes"})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{"decode: " + err.Error()})
		return
	}
	resp, err := s.backend.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Backoff guidance rides on the error: derived from queue depth and
		// measured service time by the engine, or relayed verbatim from the
		// overloaded backend by a federating front-end.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterIn(err, 1)))
		writeJSON(w, http.StatusTooManyRequests, errorBody{err.Error()})
	case errors.Is(err, ErrDraining), errors.Is(err, ErrNoBackends):
		if secs := retryAfterIn(err, 0); secs > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		writeJSON(w, http.StatusServiceUnavailable, errorBody{err.Error()})
	case errors.Is(err, ErrBackendUnavailable):
		writeJSON(w, http.StatusBadGateway, errorBody{err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.backend.WriteMetrics(w)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	ids := make([]string, 0)
	for _, wl := range workload.All() {
		ids = append(ids, wl.ID)
	}
	writeJSON(w, http.StatusOK, ids)
}

// handleHealthz is the liveness/readiness probe. A draining backend
// answers 503 with a "draining" body: the engine is still finishing
// queued sessions but refuses new ones, so a green probe would keep a
// router sending doomed sessions into ErrDraining. The federation health
// checker treats the 503 as down and pre-drains the backend off the ring.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.backend.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
