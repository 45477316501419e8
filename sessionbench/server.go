package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"giantsan/internal/service"
)

// engineWorkers and clientCount fix the load: one engine worker per core
// but one, so the load generator, net/http and the GC keep a core, and one
// closed-loop client per worker. With a client per worker no session waits
// in the queue behind another, so a round trip is one session's own work
// and not also the work of whichever session happened to be ahead of it.
func engineWorkers() int { return max(1, runtime.NumCPU()-1) }
func clientCount() int   { return engineWorkers() }

// hooks carries the traced run's tracer into the served handlers. The
// pointer is nil while nothing is traced, so the untraced phases of a
// traced run pay one atomic load per request.
type hooks struct {
	tr atomic.Pointer[tracer]
}

// topology is the in-process service a workload is served by: one engine
// behind service.NewServer behind an http.Server on loopback, as
// gsan -serve mounts it.
type topology struct {
	url  string
	eng  *service.Engine
	srv  *http.Server
	done chan struct{}
}

// startTopology serves an engine on loopback. With h non-nil the handler
// records spans and the engine marks worker pickups.
func startTopology(h *hooks) (*topology, error) {
	cfg := service.Config{Workers: engineWorkers()}
	if h != nil {
		cfg.OnSessionStart = func(r *service.Request) {
			if tr := h.tr.Load(); tr != nil {
				tr.mark("pickup", r.Tenant)
			}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	t := &topology{url: "http://" + ln.Addr().String(), eng: service.New(cfg), done: make(chan struct{})}
	t.srv = &http.Server{Handler: traceHandler(h, "handler", service.NewServer(t.eng))}
	go func() {
		defer close(t.done)
		t.srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	return t, nil
}

// close shuts the server down and drains the engine.
func (t *topology) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	t.srv.Shutdown(ctx)
	<-t.done
	t.eng.Close()
}

// traceHandler wraps next in a middleware that records a span named name
// per request while h has a tracer. The span's session is the request's
// tenant, which a traced run sets to the session's ID; its parent is
// resolved when the spans are written (see linkParents).
func traceHandler(h *hooks, name string, next http.Handler) http.Handler {
	if h == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := h.tr.Load()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		next.ServeHTTP(w, r)
		tr.add(name, tenantOf(body), "", start, time.Now())
	})
}

// tenantOf extracts the tenant field from a marshaled service.Request.
// json.Marshal writes it last, and no earlier field can hold a quote.
func tenantOf(body []byte) string {
	key := []byte(`"tenant":"`)
	i := bytes.LastIndex(body, key)
	if i < 0 {
		return ""
	}
	rest := body[i+len(key):]
	if j := bytes.IndexByte(rest, '"'); j >= 0 {
		return string(rest[:j])
	}
	return ""
}

// client is one closed-loop client with its own keep-alive connection.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr}
}

// post sends one session request and reads the whole reply.
func (c *client) post(url string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(url+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *client) close() { c.tr.CloseIdleConnections() }
