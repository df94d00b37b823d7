package obs

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"
)

// TestCaptureFlightRoundTrip captures a post-mortem from a live sink and
// reads it back, checking every component survives serialization.
func TestCaptureFlightRoundTrip(t *testing.T) {
	s := New()
	s.Grant("j1", 0, 220)
	s.LimitWrite("node0001", 200)
	root := s.StartSpan(SpanContext{}, "campaign", "scenario")
	s.StartSpan(root.Ctx(), "rm", "cap_write").End()
	// root stays open: the flight record must capture it as in-flight.

	fr := CaptureFlight(s, "policy=X seed=3", "anomalous", "", 3)
	fr.Config = json.RawMessage(`{"nodes":3}`)

	var b bytes.Buffer
	if err := fr.Write(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightRecord(&b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scenario != "policy=X seed=3" || got.Reason != "anomalous" || got.Seed != 3 {
		t.Errorf("header round trip: %+v", got)
	}
	if got.EventsTotal != 2 || len(got.Events) != 2 {
		t.Errorf("events = %d (total %d), want 2", len(got.Events), got.EventsTotal)
	}
	if len(got.Spans) != 1 || got.Spans[0].Name != "cap_write" {
		t.Errorf("spans = %+v", got.Spans)
	}
	if len(got.OpenSpans) != 1 || got.OpenSpans[0].Name != "scenario" || !got.OpenSpans[0].Open {
		t.Errorf("open spans = %+v", got.OpenSpans)
	}
	if got.Metrics == "" {
		t.Error("metrics snapshot missing")
	}
	var cfg map[string]any
	if err := json.Unmarshal(got.Config, &cfg); err != nil || cfg["nodes"] != float64(3) {
		t.Errorf("config blob = %s (err %v)", got.Config, err)
	}
}

// TestCaptureFlightNilSink checks flight capture off a nil sink yields a
// valid, mostly empty record instead of panicking.
func TestCaptureFlightNilSink(t *testing.T) {
	var s *Sink
	fr := CaptureFlight(s, "sc", "error", "boom", 1)
	if fr.Error != "boom" || fr.EventsTotal != 0 || len(fr.Spans) != 0 {
		t.Errorf("nil-sink flight = %+v", fr)
	}
	path := filepath.Join(t.TempDir(), "flight.json")
	if err := fr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != "error" || got.Error != "boom" {
		t.Errorf("file round trip = %+v", got)
	}
}

// TestCaptureFlightTailsEvents checks the event tail is bounded even when
// the journal retains more.
func TestCaptureFlightTailsEvents(t *testing.T) {
	s := NewWithCapacity(DefaultFlightEventTail * 2)
	for i := 0; i < DefaultFlightEventTail+100; i++ {
		s.Grant("j", i, 1)
	}
	fr := CaptureFlight(s, "", "anomalous", "", 0)
	if len(fr.Events) != DefaultFlightEventTail {
		t.Errorf("tail = %d, want %d", len(fr.Events), DefaultFlightEventTail)
	}
	// The tail keeps the most recent events.
	if last := fr.Events[len(fr.Events)-1]; last.Iter != DefaultFlightEventTail+99 {
		t.Errorf("last event iter = %d, want %d", last.Iter, DefaultFlightEventTail+99)
	}
	if fr.CapturedAt.IsZero() {
		t.Error("capture time not stamped")
	}
	if time.Since(fr.CapturedAt) > time.Minute {
		t.Error("capture time implausible")
	}
}
