package obs

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBroadcasterFanout checks every subscriber sees every event published
// while it is subscribed.
func TestBroadcasterFanout(t *testing.T) {
	s := New()
	a := s.Stream.Subscribe(16)
	b := s.Stream.Subscribe(16)
	defer a.Close()
	defer b.Close()
	s.Grant("j1", 0, 100)
	s.LimitWrite("n", 190)
	for _, sub := range []*Subscriber{a, b} {
		for _, want := range []EventType{EvGrant, EvLimitWrite} {
			select {
			case e := <-sub.C():
				if e.Type != want {
					t.Errorf("got %s, want %s", e.Type, want)
				}
			case <-time.After(time.Second):
				t.Fatal("timed out waiting for event")
			}
		}
	}
}

// TestBroadcasterSlowClientDropped is the backpressure contract: a
// subscriber that stops draining is dropped (its channel closed, the drop
// counted) without ever blocking recorders, and fast subscribers keep
// receiving. Run with -race.
func TestBroadcasterSlowClientDropped(t *testing.T) {
	s := New()
	slow := s.Stream.Subscribe(1) // never drained
	fast := s.Stream.Subscribe(1 << 10)

	// Close does not close the channel (the broadcaster is the sole
	// closer), so the drainer exits on a quit signal, not channel close.
	var got int
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case _, ok := <-fast.C():
				if !ok {
					return
				}
				got++
			case <-quit:
				return
			}
		}
	}()

	// Concurrent recorders: publish must stay non-blocking even with the
	// slow client wedged.
	const workers, perWorker = 4, 100
	var pubs sync.WaitGroup
	for w := 0; w < workers; w++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < perWorker; i++ {
				s.Grant("j", i, 100)
			}
		}()
	}
	pubs.Wait()

	select {
	case _, ok := <-slow.C():
		if ok {
			// One buffered event is fine; the channel must then be closed.
			if _, ok := <-slow.C(); ok {
				t.Fatal("slow client still open after sustained publishing")
			}
		}
	case <-time.After(time.Second):
		t.Fatal("slow client channel neither delivered nor closed")
	}
	if got := s.Stream.DroppedClients(); got != 1 {
		t.Errorf("dropped clients = %d, want 1", got)
	}
	if got := s.Stream.Clients(); got != 1 {
		t.Errorf("clients = %d, want 1 (fast)", got)
	}

	close(quit)
	wg.Wait()
	fast.Close()
	if got == 0 {
		t.Error("fast client received nothing")
	}
	if s.Stream.Clients() != 0 {
		t.Errorf("clients after close = %d, want 0", s.Stream.Clients())
	}
	// Closing the already-dropped subscriber must be a safe no-op.
	slow.Close()
	if got := s.Stream.DroppedClients(); got != 1 {
		t.Errorf("dropped clients after close = %d, want 1", got)
	}
}

// TestStreamEventsSSE exercises the HTTP half: a client receives the hello
// frame and then recorded events as SSE data frames.
func TestStreamEventsSSE(t *testing.T) {
	s := New()
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/stream/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	r := bufio.NewReader(resp.Body)
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "event: hello") {
		t.Fatalf("first frame = %q, want hello", line)
	}
	// Wait for the subscription to be registered before recording.
	deadline := time.Now().Add(time.Second)
	for s.Stream.Clients() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
	s.Grant("j1", 0, 150)
	for {
		line, err = r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"grant"`) {
			return
		}
	}
}

// TestStreamNilSink checks the endpoints degrade to 503 without a sink.
func TestStreamNilSink(t *testing.T) {
	ts := httptest.NewServer(NewMux(nil))
	defer ts.Close()
	for _, path := range []string{"/stream/events", "/stream/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck // test
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s = %d, want 503", path, resp.StatusCode)
		}
	}
}

// TestHealthz checks the health endpoint reports streaming state.
func TestHealthz(t *testing.T) {
	s := New()
	s.Grant("j", 0, 1)
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	for _, want := range []string{`"status":"ok"`, `"events_total":1`} {
		if !strings.Contains(body, want) {
			t.Errorf("/healthz missing %s in %s", want, body)
		}
	}
}
