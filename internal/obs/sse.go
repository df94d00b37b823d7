package obs

import (
	"bytes"
	"fmt"
	"net/http"
	"time"
)

// SSE is an open Server-Sent Events response — the one framing path under
// the debug mux's /stream/* routes and the service's /v1/stream/* routes.
type SSE struct {
	w  http.ResponseWriter
	fl http.Flusher
}

// OpenSSE starts a Server-Sent Events response on w: it answers 500 and
// returns nil when w cannot flush, and otherwise sets the event-stream
// headers.
func OpenSSE(w http.ResponseWriter) *SSE {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return nil
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	return &SSE{w: w, fl: fl}
}

// Send writes one frame and flushes it: an `event:` line when event is
// non-empty, then one `data:` line per line of data (SSE multi-line
// payloads need the prefix on every line).
func (s *SSE) Send(event string, data []byte) {
	if event != "" {
		fmt.Fprintf(s.w, "event: %s\n", event)
	}
	for _, line := range bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n")) {
		fmt.Fprintf(s.w, "data: %s\n", line)
	}
	fmt.Fprint(s.w, "\n")
	s.fl.Flush()
}

// Relay forwards sub's events as data frames, each encoded by enc (events
// enc fails on are skipped), until the request ends or the broadcaster
// drops the client for falling behind. A dropped client gets a final
// `event: dropped` frame, and Relay reports true.
func (s *SSE) Relay(r *http.Request, sub *Subscriber, enc func(Event) ([]byte, error)) (dropped bool) {
	for {
		select {
		case <-r.Context().Done():
			return false
		case e, ok := <-sub.C():
			if !ok {
				s.Send("dropped", []byte(`{"reason":"slow client"}`))
				return true
			}
			if b, err := enc(e); err == nil {
				s.Send("", b)
			}
		}
	}
}

// Tick sends frame's payload as a data frame at once and then once per
// interval until the request ends; a frame that fails to render is
// skipped. The interval is the request's ?interval= (a Go duration,
// floored at 50ms), or def when absent or malformed.
func (s *SSE) Tick(r *http.Request, def time.Duration, frame func() ([]byte, error)) {
	interval := def
	if d, err := time.ParseDuration(r.URL.Query().Get("interval")); err == nil {
		interval = max(d, 50*time.Millisecond)
	}
	send := func() {
		if b, err := frame(); err == nil {
			s.Send("", b)
		}
	}
	send()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
			send()
		}
	}
}
