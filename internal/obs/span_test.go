package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSpanParentChild checks that spans started from another span's context
// share its trace and record the parent link, while a zero parent starts a
// fresh trace.
func TestSpanParentChild(t *testing.T) {
	s := New()
	root := s.StartSpan(SpanContext{}, "campaign", "campaign")
	child := s.StartSpan(root.Ctx(), "facility", "facility_run")
	grand := s.StartSpan(child.Ctx(), "rm", "cap_write")
	other := s.StartSpan(SpanContext{}, "obsdump", "demo")
	grand.End()
	child.End()
	root.End()
	other.End()

	spans := s.Spans.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	r, c, g, o := byName["campaign"], byName["facility_run"], byName["cap_write"], byName["demo"]
	if r.Parent != 0 {
		t.Errorf("root parent = %d, want 0", r.Parent)
	}
	if c.Trace != r.Trace || c.Parent != r.ID {
		t.Errorf("child trace/parent = %d/%d, want %d/%d", c.Trace, c.Parent, r.Trace, r.ID)
	}
	if g.Trace != r.Trace || g.Parent != c.ID {
		t.Errorf("grandchild trace/parent = %d/%d, want %d/%d", g.Trace, g.Parent, r.Trace, c.ID)
	}
	if o.Trace == r.Trace {
		t.Error("independent root landed in the same trace")
	}
	// Spans land in the log end-first (children complete before parents),
	// and End is counted per name in the metrics.
	if got := s.Metrics.Counter(MetricSpans, "name", "cap_write").Value(); got != 1 {
		t.Errorf("span counter = %v, want 1", got)
	}
}

// TestSpanVirtualTime checks that a virtual-clock view of the sink stamps
// span start and end with the simulated clock.
func TestSpanVirtualTime(t *testing.T) {
	s := New()
	var vnow time.Duration
	vs := s.WithVClock(func() time.Duration { return vnow })
	vnow = 5 * time.Second
	sp := vs.StartSpan(SpanContext{}, "facility", "replan")
	vnow = 9 * time.Second
	sp.End()
	spans := s.Spans.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("retained %d spans, want 1", len(spans))
	}
	if spans[0].VStart != 5*time.Second || spans[0].VEnd != 9*time.Second {
		t.Errorf("virtual bounds = [%v, %v], want [5s, 9s]", spans[0].VStart, spans[0].VEnd)
	}
}

// TestSpanEndIdempotent checks double-End records the span once.
func TestSpanEndIdempotent(t *testing.T) {
	s := New()
	sp := s.StartSpan(SpanContext{}, "x", "y")
	sp.End()
	sp.End()
	if got := s.Spans.Total(); got != 1 {
		t.Errorf("span total = %d, want 1", got)
	}
}

// TestSpanLogWraparound fills the span ring past capacity and checks the
// retained window is the most recent spans in completion order.
func TestSpanLogWraparound(t *testing.T) {
	s := NewWithCapacity(64)
	s.Spans = NewSpanLog(4, time.Now())
	for i := 0; i < 10; i++ {
		s.StartSpan(SpanContext{}, "layer", "s").SetIter(i).End()
	}
	if got := s.Spans.Total(); got != 10 {
		t.Errorf("total = %d, want 10", got)
	}
	if got := s.Spans.Dropped(); got != 6 {
		t.Errorf("dropped = %d, want 6", got)
	}
	snap := s.Spans.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("retained %d, want 4", len(snap))
	}
	for i, sp := range snap {
		if want := 6 + i; sp.Iter != want {
			t.Errorf("snap[%d].Iter = %d, want %d", i, sp.Iter, want)
		}
	}
}

// TestOpenSpansSnapshot checks still-open spans are visible (flight
// recorder's "what was in flight") without being committed to the ring.
func TestOpenSpansSnapshot(t *testing.T) {
	s := New()
	sp := s.StartSpan(SpanContext{}, "facility", "facility_run")
	open := s.Spans.OpenSnapshot()
	if len(open) != 1 || !open[0].Open || open[0].Name != "facility_run" {
		t.Fatalf("open snapshot = %+v", open)
	}
	if len(s.Spans.Snapshot()) != 0 {
		t.Error("open span leaked into the completed ring")
	}
	sp.End()
	if got := s.Spans.OpenSnapshot(); len(got) != 0 {
		t.Errorf("open snapshot after End = %+v", got)
	}
}

// TestSpanAnnotateDuringOpenSnapshot pins, under -race, that annotating an
// open span while another goroutine snapshots the open set (a campaign
// worker's flight capture against a sibling's running span) is
// synchronized.
func TestSpanAnnotateDuringOpenSnapshot(t *testing.T) {
	s := New()
	sp := s.StartSpan(SpanContext{}, "rm", "cap_write")
	done := make(chan []SpanRecord)
	go func() { done <- s.Spans.OpenSnapshot() }()
	sp.SetScope("job1").SetHost("node0001").SetIter(2).SetValue(150)
	if open := <-done; len(open) != 1 {
		t.Fatalf("open snapshot = %+v", open)
	}
	sp.End()
	if got := s.Spans.Snapshot(); len(got) != 1 || got[0].Scope != "job1" || got[0].Host != "node0001" || got[0].Iter != 2 || got[0].Value != 150 {
		t.Fatalf("completed span = %+v", got)
	}
}

// TestSpanJSONLRoundTrip writes the span log as JSONL and reads it back.
func TestSpanJSONLRoundTrip(t *testing.T) {
	s := New()
	root := s.StartSpan(SpanContext{}, "campaign", "scenario").SetScope("MixedAdaptive").SetIter(3).SetValue(1200)
	s.StartSpan(root.Ctx(), "rm", "cap_write").SetHost("node0001").End()
	root.End()

	var b strings.Builder
	if err := s.WriteSpans(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpansJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := s.Spans.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("round trip %d spans, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("span %d round trip mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestTraceIncludesSpans checks Sink.WriteTrace merges span "X" events with
// the journal's instants into one valid Chrome trace document.
func TestTraceIncludesSpans(t *testing.T) {
	s := New()
	sp := s.StartSpan(SpanContext{}, "facility", "facility_run")
	s.Grant("j1", 0, 200)
	sp.End()

	var b strings.Builder
	if err := s.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace invalid JSON: %v", err)
	}
	var complete, instant bool
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			if ev["name"] == "facility_run" {
				complete = true
			}
		case "i":
			instant = true
		}
	}
	if !complete {
		t.Error("trace missing span complete event")
	}
	if !instant {
		t.Error("trace missing journal instant event")
	}
}

// TestNilSinkSpansFree drives the span surface through a nil sink and
// asserts it is allocation-free — the zero-cost property the whole
// instrumentation layer is gated on.
func TestNilSinkSpansFree(t *testing.T) {
	var s *Sink
	sp := s.StartSpan(SpanContext{}, "x", "y")
	if sp != nil {
		t.Fatal("nil sink returned a live span")
	}
	sp.SetScope("a").SetHost("b").SetIter(1).SetValue(2).End() // must not panic
	if ctx := sp.Ctx(); ctx.Valid() {
		t.Errorf("nil span context valid: %+v", ctx)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sp := s.StartSpan(SpanContext{}, "facility", "replan")
		sp.SetIter(3).SetValue(1.5)
		sp.End()
		s.ReplanLatency(2, 0.001)
		s.JobFinished("j", 1, 2)
		s.CapWriteRetries("n", 0)
		s.CacheLookup("k", true, 0.001)
	})
	if allocs != 0 {
		t.Errorf("nil sink span path allocated %v per run", allocs)
	}
	if s.WithVClock(func() time.Duration { return 0 }) != nil {
		t.Error("nil sink WithVClock returned non-nil")
	}
}

// BenchmarkNilSinkSpan is the CI-gated zero-cost benchmark: with spans
// compiled into every hot path, a disabled (nil) sink must cost nothing.
func BenchmarkNilSinkSpan(b *testing.B) {
	var s *Sink
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := s.StartSpan(SpanContext{}, "facility", "replan")
		sp.SetIter(i).SetValue(1.5)
		sp.End()
	}
}
