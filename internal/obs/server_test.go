package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, base, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close() //nolint:errcheck // test
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestMuxEndpoints(t *testing.T) {
	s := New()
	s.Grant("j1", 0, 220)
	s.LimitWrite("node0001", 200)
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()

	code, body, hdr := get(t, ts.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	if !strings.Contains(body, `powerstack_grants_total{job="j1"} 1`) {
		t.Errorf("/metrics body missing grant counter:\n%s", body)
	}

	code, body, _ = get(t, ts.URL, "/events")
	if code != http.StatusOK {
		t.Fatalf("/events = %d", code)
	}
	var events []Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("/events invalid JSON: %v", err)
	}
	if len(events) != 2 || events[0].Type != EvGrant || events[1].Type != EvLimitWrite {
		t.Errorf("/events = %+v", events)
	}

	code, body, hdr = get(t, ts.URL, "/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace = %d", code)
	}
	if cd := hdr.Get("Content-Disposition"); !strings.Contains(cd, "powerstack-trace.json") {
		t.Errorf("/trace content-disposition = %q", cd)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("/trace has no events")
	}

	code, body, _ = get(t, ts.URL, "/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d %q", code, body)
	}
	if code, _, _ = get(t, ts.URL, "/nonexistent"); code != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", code)
	}
	if code, body, _ = get(t, ts.URL, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, _, _ = get(t, ts.URL, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

func TestMuxNilSink(t *testing.T) {
	ts := httptest.NewServer(NewMux(nil))
	defer ts.Close()
	for _, path := range []string{"/metrics", "/events", "/trace"} {
		code, body, _ := get(t, ts.URL, path)
		if code != http.StatusOK {
			t.Errorf("%s with nil sink = %d", path, code)
		}
		if path != "/metrics" {
			var v any
			if err := json.Unmarshal([]byte(body), &v); err != nil {
				t.Errorf("%s with nil sink invalid JSON: %v", path, err)
			}
		}
	}
}

func TestServeLifecycle(t *testing.T) {
	s := New()
	s.Grant("j1", 0, 150)
	srv, err := Serve("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	code, body, _ := get(t, "http://"+srv.Addr(), "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "powerstack_grants_total") {
		t.Errorf("served /metrics = %d %q", code, body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Error("server still reachable after Close")
	}
}
