package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"powerstack/internal/obs"
)

// flushGate is an http.ResponseWriter whose every Flush parks until the
// test releases it (closes the channel it received from flushes), so the
// test knows exactly which frames the handler has written and can publish
// events while the handler is parked.
type flushGate struct {
	hdr     http.Header
	mu      sync.Mutex
	buf     bytes.Buffer
	flushes chan chan struct{}
}

func newFlushGate() *flushGate {
	return &flushGate{hdr: http.Header{}, flushes: make(chan chan struct{})}
}

func (g *flushGate) Header() http.Header { return g.hdr }
func (g *flushGate) WriteHeader(int)     {}
func (g *flushGate) Write(p []byte) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.Write(p)
}
func (g *flushGate) Flush() {
	release := make(chan struct{})
	g.flushes <- release
	<-release
}

func (g *flushGate) String() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.String()
}

// serveGated runs h on a gated writer and waits for its first flush: the
// first frame is on the wire and the handler is parked. With a nil drop,
// the request context is then cancelled; otherwise drop runs while the
// handler is still parked and must make the handler end the stream by
// itself. Remaining flushes are drained until h returns, and the full
// response body is returned.
func serveGated(t *testing.T, h http.HandlerFunc, target string, drop func()) (string, http.Header) {
	t.Helper()
	g := newFlushGate()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest("GET", target, nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		h(g, req)
	}()
	var release chan struct{}
	select {
	case release = <-g.flushes:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no first frame", target)
	}
	if drop != nil {
		drop()
	} else {
		cancel()
	}
	close(release)
	for {
		select {
		case release = <-g.flushes:
			close(release)
		case <-done:
			return g.String(), g.hdr
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: handler did not return; body %q", target, g.String())
		}
	}
}

const droppedFrame = "event: dropped\ndata: {\"reason\":\"slow client\"}\n\n"

// TestSSEFramesPinned pins the wire bytes of all four SSE routes: the
// event-stream headers, the first frame of each, and the final
// `event: dropped` frame both event feeds send a client the broadcaster
// dropped for falling behind.
func TestSSEFramesPinned(t *testing.T) {
	checkHeaders := func(t *testing.T, hdr http.Header) {
		t.Helper()
		for k, want := range map[string]string{
			"Content-Type": "text/event-stream", "Cache-Control": "no-cache", "Connection": "keep-alive",
		} {
			if got := hdr.Get(k); got != want {
				t.Errorf("%s = %q, want %q", k, got, want)
			}
		}
	}

	t.Run("obs/stream/events", func(t *testing.T) {
		s := obs.New()
		mux := obs.NewMux(s)
		// A one-event buffer: the first grant fills it, the second drops
		// the parked client.
		body, hdr := serveGated(t, mux.ServeHTTP, "/stream/events?buffer=1", func() {
			s.Grant("j1", 0, 100)
			s.Grant("j2", 0, 100)
		})
		checkHeaders(t, hdr)
		const hello = "event: hello\ndata: {\"buffer\":1}\n\n"
		if !strings.HasPrefix(body, hello) || !strings.HasSuffix(body, droppedFrame) {
			t.Fatalf("body = %q, want hello … dropped", body)
		}
		mid := strings.TrimSuffix(strings.TrimPrefix(body, hello), droppedFrame)
		if !strings.HasPrefix(mid, "data: {") || !strings.Contains(mid, `"scope":"j1"`) || strings.Count(mid, "\n\n") != 1 {
			t.Errorf("frames between hello and dropped = %q, want the one buffered j1 grant", mid)
		}
		if got := s.Stream.DroppedClients(); got != 1 {
			t.Errorf("dropped clients = %d, want 1", got)
		}
	})

	t.Run("obs/stream/metrics", func(t *testing.T) {
		s := obs.New()
		s.Metrics.Counter("powerstack_test_total").Add(3)
		body, hdr := serveGated(t, obs.NewMux(s).ServeHTTP, "/stream/metrics?interval=1h", nil)
		checkHeaders(t, hdr)
		const want = "data: # HELP powerstack_stream_clients Live streaming clients currently subscribed.\n" +
			"data: # TYPE powerstack_stream_clients gauge\n" +
			"data: powerstack_stream_clients 1\n" +
			"data: # HELP powerstack_test_total powerstack metric powerstack_test_total.\n" +
			"data: # TYPE powerstack_test_total counter\n" +
			"data: powerstack_test_total 3\n\n"
		if body != want {
			t.Errorf("first frame = %q, want %q", body, want)
		}
	})

	cfg, _ := serviceEnv(t)
	sink := obs.New()
	h := NewHost(sink)
	// A negligible speedup parks the pacer, so virtual time stays at zero.
	if err := h.Add(InstanceConfig{Name: "main", Facility: cfg, Speedup: 1e-6}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		h.Shutdown(ctx) //nolint:errcheck // test teardown
	}()

	t.Run("v1/stream/telemetry", func(t *testing.T) {
		body, hdr := serveGated(t, h.handleStreamTelemetry, "/v1/stream/telemetry?interval=1h", nil)
		checkHeaders(t, hdr)
		const want = "event: hello\ndata: {}\n\n" +
			"data: {\"at_ns\":0,\"power_watts\":0,\"budget_watts\":1200,\"running\":0,\"queued\":0,\"completed\":0}\n\n"
		if body != want {
			t.Errorf("first frame = %q, want %q", body, want)
		}
	})

	t.Run("v1/stream/events", func(t *testing.T) {
		body, hdr := serveGated(t, h.handleStreamEvents, "/v1/stream/events", func() {
			// One more than the default buffer drops the parked client.
			for i := 0; i <= obs.DefaultStreamBuffer; i++ {
				sink.Grant("j", i, 100)
			}
		})
		checkHeaders(t, hdr)
		const hello = "event: hello\ndata: {}\n\n"
		if !strings.HasPrefix(body, hello) || !strings.HasSuffix(body, droppedFrame) {
			t.Fatalf("body = %.200q…, want hello … dropped", body)
		}
		mid := strings.TrimSuffix(strings.TrimPrefix(body, hello), droppedFrame)
		if got := strings.Count(mid, "data: {\"seq\":"); got != obs.DefaultStreamBuffer {
			t.Errorf("relayed %d event frames, want %d", got, obs.DefaultStreamBuffer)
		}
	})
}
