package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// NewMux returns the debug HTTP handler for a sink:
//
//	/metrics         Prometheus text exposition
//	/events          retained decision events as JSON
//	/trace           Chrome trace_event JSON (open in Perfetto)
//	/spans           completed spans as JSON Lines
//	/stream/events   live decision events over SSE (?buffer= per-client cap)
//	/stream/metrics  periodic metrics snapshots over SSE (?interval=)
//	/healthz         readiness probe with stream/journal stats
//	/debug/pprof/*   the standard runtime profiles
//
// The mux is exposed separately from Serve so tests and embedders can mount
// it on their own servers.
func NewMux(s *Sink) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var j *Journal
		if s != nil {
			j = s.Journal
		}
		if err := j.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="powerstack-trace.json"`)
		if err := s.WriteTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		if err := s.WriteSpans(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/stream/events", func(w http.ResponseWriter, r *http.Request) {
		streamEvents(w, r, s)
	})
	mux.HandleFunc("/stream/metrics", func(w http.ResponseWriter, r *http.Request) {
		streamMetrics(w, r, s)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		st := struct {
			Status         string `json:"status"`
			Streaming      bool   `json:"streaming"`
			StreamClients  int    `json:"stream_clients"`
			ClientsDropped uint64 `json:"stream_clients_dropped"`
			EventsTotal    uint64 `json:"events_total"`
			EventsDropped  uint64 `json:"events_dropped"`
			SpansTotal     uint64 `json:"spans_total"`
		}{Status: "ok"}
		if s != nil {
			st.Streaming = s.Stream != nil
			st.StreamClients = s.Stream.Clients()
			st.ClientsDropped = s.Stream.DroppedClients()
			st.EventsTotal = s.Journal.Total()
			st.EventsDropped = s.Journal.Dropped()
			st.SpansTotal = s.Spans.Total()
		}
		json.NewEncoder(w).Encode(st) //nolint:errcheck // best-effort probe
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "powerstack debug server\n\n/metrics\n/events\n/trace\n/spans\n/stream/events\n/stream/metrics\n/healthz\n/debug/pprof/\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// streamEvents serves the live decision-event feed as Server-Sent Events.
// Each journal event becomes one `data: {json}` frame. The per-client
// buffer is bounded (?buffer=, default DefaultStreamBuffer, max 65536); a
// client that cannot drain its buffer is dropped by the broadcaster —
// recorders never block — and receives a final `event: dropped` frame.
func streamEvents(w http.ResponseWriter, r *http.Request, s *Sink) {
	if s == nil || s.Stream == nil {
		http.Error(w, "streaming disabled: no sink", http.StatusServiceUnavailable)
		return
	}
	sse := OpenSSE(w)
	if sse == nil {
		return
	}
	buf := DefaultStreamBuffer
	if n, err := strconv.Atoi(r.URL.Query().Get("buffer")); err == nil && n > 0 {
		buf = min(n, 1<<16)
	}
	sub := s.Stream.Subscribe(buf)
	defer sub.Close()
	clients := s.Metrics.Gauge(MetricStreamClients)
	clients.Add(1)
	defer clients.Add(-1)

	// The hello frame commits the headers and gives smoke tests a first
	// frame to assert on before any event traffic arrives.
	sse.Send("hello", fmt.Appendf(nil, `{"buffer":%d}`, buf))
	if sse.Relay(r, sub, func(e Event) ([]byte, error) { return json.Marshal(e) }) {
		s.Metrics.Counter(MetricStreamDropped).Inc()
	}
}

// streamMetrics serves periodic Prometheus snapshots as Server-Sent
// Events: one multi-line `data:` frame per interval (?interval=, default
// 2s, floor 50ms), starting with an immediate snapshot.
func streamMetrics(w http.ResponseWriter, r *http.Request, s *Sink) {
	if s == nil || s.Metrics == nil {
		http.Error(w, "streaming disabled: no sink", http.StatusServiceUnavailable)
		return
	}
	sse := OpenSSE(w)
	if sse == nil {
		return
	}
	clients := s.Metrics.Gauge(MetricStreamClients)
	clients.Add(1)
	defer clients.Add(-1)

	sse.Tick(r, 2*time.Second, func() ([]byte, error) {
		var b bytes.Buffer
		err := s.WritePrometheus(&b)
		return b.Bytes(), err
	})
}

// Server is a running debug HTTP server.
type Server struct {
	ln     net.Listener
	srv    *http.Server
	cancel context.CancelFunc
}

// Serve starts the debug server on addr (e.g. "localhost:6060"; an addr
// ending in ":0" picks a free port — read it back with Addr). The server
// runs until Close or Shutdown. ServeHandler generalizes it to any
// handler; both wire every request's context to a server-scoped base
// context so Shutdown can drain SSE clients (their streaming loops select
// on r.Context()).
func Serve(addr string, s *Sink) (*Server, error) {
	return ServeHandler(addr, NewMux(s))
}

// ServeHandler starts an HTTP server for an arbitrary handler with the
// same lifecycle as Serve — the service layer mounts its /v1 API on top
// of the debug mux this way.
func ServeHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listening on %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}
	go srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return &Server{ln: ln, srv: srv, cancel: cancel}, nil
}

// Addr returns the bound listen address.
func (sv *Server) Addr() string { return sv.ln.Addr().String() }

// Shutdown stops the server gracefully: the base context is cancelled
// first, which ends every streaming response (SSE clients see their
// request contexts done and return), then the listener closes and
// Shutdown waits — bounded by ctx — for in-flight requests to finish.
func (sv *Server) Shutdown(ctx context.Context) error {
	sv.cancel()
	return sv.srv.Shutdown(ctx)
}

// Close shuts the server down immediately, without waiting for in-flight
// requests.
func (sv *Server) Close() error {
	sv.cancel()
	return sv.srv.Close()
}
