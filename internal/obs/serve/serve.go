// Package serve is the live observability plane: a stdlib-only HTTP
// server exposing a running campaign's metrics, progress, and attack
// timelines while the run is still in flight.
//
// The plane lives strictly on the wall-clock side of the repo's sim/wall
// boundary. It holds no simulation state of its own — each endpoint pulls
// through a read hook the caller wires up (obs.Accumulator.State for table
// runs; fleet.ProgressTracker.Metrics and ReportAt for campaigns), so a
// scrape observes a consistent prefix of the run without ever touching
// the workers. The inverse direction is fenced by the phantomlint
// determinism analyzer: sim packages must never import this package (or
// net, or net/http).
//
// Endpoints:
//
//	/healthz         200 "ok" — liveness for scripts and CI smoke tests
//	/metrics         OpenMetrics text exposition (obs.WriteOpenMetrics)
//	/progress        JSON campaign progress (fleet.ProgressReport shape)
//	/trace           Chrome trace-event JSON, loadable in Perfetto
//	/debug/pprof/... the standard net/http/pprof profiling handlers
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/timeline"
)

// openMetricsContentType is the OpenMetrics 1.0 exposition media type,
// negotiated by Prometheus scrapers.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Plane wires a server's endpoints to a running campaign through read
// hooks. A nil hook serves 404 on its endpoint, so a caller exposes only
// what the run actually produces (a table run has no fleet progress; a
// fleet run, whose homes run traceless, has no /trace).
type Plane struct {
	// Metrics returns the current aggregate snapshot for /metrics.
	Metrics func() obs.Snapshot
	// Progress returns the /progress JSON payload — any JSON-encodable
	// value, conventionally a fleet.ProgressReport.
	Progress func() any
	// TraceSources returns the event streams rendered by /trace.
	TraceSources func() []timeline.Source
}

// Handler builds the plane's routing table. Exposed separately from Start
// so tests drive it through net/http/httptest.
func (p Plane) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if p.Metrics != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			// Render to a buffer first: WriteOpenMetrics cannot fail on a
			// bytes.Buffer, and a scraper never sees a torn exposition.
			var buf bytes.Buffer
			if err := obs.WriteOpenMetrics(&buf, p.Metrics()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", openMetricsContentType)
			w.Write(buf.Bytes())
		})
	}
	if p.Progress != nil {
		mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(p.Progress()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(buf.Bytes())
		})
	}
	if p.TraceSources != nil {
		mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
			var buf bytes.Buffer
			if err := timeline.WriteChromeTrace(&buf, timeline.BuildAll(p.TraceSources())); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(buf.Bytes())
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running observability plane.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start binds addr (":9090", "127.0.0.1:0", ...) and serves the plane in
// a background goroutine. Binding errors surface immediately; the caller
// learns the resolved port — meaningful with ":0" — from Addr.
func Start(addr string, p Plane) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           p.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately. In-flight scrapes are cut off — the
// plane is diagnostics, not data plane, so shutdown never blocks a run's
// exit.
func (s *Server) Close() error { return s.srv.Close() }
