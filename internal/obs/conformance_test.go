package obs

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"time"
)

// sampleLine matches one Prometheus text sample: name, optional label set,
// value. Label values are quoted with \", \\ and \n escaped.
var sampleLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*")*\})? (-?[0-9.e+-]+|\+Inf|NaN)$`)

// TestPrometheusConformance drives every instrumentation helper through a
// sink — including label values needing escaping — and validates the full
// /metrics exposition: every sample parses, and every family is preceded
// by exactly one # HELP and one # TYPE line, in that order.
func TestPrometheusConformance(t *testing.T) {
	s := New()
	// Cover the whole vocabulary, old and new.
	s.Grant(`job"with\quotes`, 0, 200)
	s.Regrant("j1", 0, 200)
	s.Epoch("coordinator", "j1", 1, 0.3)
	s.Realloc("j1", 1, 15)
	s.LimitWrite("node0001", 190)
	s.MSRWrite()
	s.EnergyWrap("pkg", "node0001")
	s.PowerSample("facility", 880)
	s.BudgetChange("drop", 950, 900)
	s.CellStart("mix", "pol", "ideal")
	s.CellDone("mix", "pol", "ideal", 2)
	s.FaultInjected("msr_fault", "node0001", "armed", 1)
	s.PolicyFallback("j1", "missing characterization")
	s.Quarantine("node0001", "crash")
	s.Rejoin("node0001")
	s.CapRetry("node0001", 190, 1)
	s.RequestHold("j1", 2, 100, 1, false)
	s.TelemetryHold("node0001", 150)
	s.JobRequeued("j1", 2)
	s.EngineDispatch("arrival", time.Second)
	s.CampaignShardStart("pol", 0, 1)
	s.CampaignShardDone("pol", 0, 1, 0.1)
	s.CacheLookup("key1", true, 0.001)
	s.ReplanLatency(3, 0.002)
	s.JobFinished("j1", 12, 340)
	s.CapWriteRetries("node0001", 2)
	s.StartSpan(SpanContext{}, "facility", "replan").End()

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	helped := map[string]bool{}
	typed := map[string]bool{}
	families := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || fields[3] == "" {
				t.Errorf("line %d: HELP without text: %q", ln+1, line)
				continue
			}
			if helped[fields[2]] {
				t.Errorf("line %d: duplicate HELP for %s", ln+1, fields[2])
			}
			helped[fields[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Errorf("line %d: malformed TYPE: %q", ln+1, line)
				continue
			}
			name, kind := fields[2], fields[3]
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("line %d: unknown TYPE %q", ln+1, kind)
			}
			if !helped[name] {
				t.Errorf("line %d: TYPE %s not preceded by HELP", ln+1, name)
			}
			if typed[name] {
				t.Errorf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			typed[name] = true
		case line == "":
			t.Errorf("line %d: blank line in exposition", ln+1)
		default:
			m := sampleLine.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("line %d: sample does not parse: %q", ln+1, line)
				continue
			}
			family := m[1]
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(family, suffix); base != family && typed[base] {
					family = base
					break
				}
			}
			if !typed[family] {
				t.Errorf("line %d: sample %s has no TYPE", ln+1, family)
			}
			families[family] = true
		}
	}
	for name := range typed {
		if !families[name] {
			t.Errorf("TYPE %s has no samples", name)
		}
	}
	// The escaped label survived and is parseable.
	if !strings.Contains(out, `job="job\"with\\quotes"`) {
		t.Error("label escaping missing from exposition")
	}
}

// TestWriteTraceAfterWraparound fills the journal past capacity and checks
// the trace export still yields valid, virtually-ordered JSON covering
// exactly the retained window.
func TestWriteTraceAfterWraparound(t *testing.T) {
	s := NewWithCapacity(8)
	var vnow time.Duration
	vs := s.WithVClock(func() time.Duration { return vnow })
	for i := 0; i < 30; i++ {
		vnow = time.Duration(i+1) * time.Second
		vs.Grant("j", i, float64(i))
	}
	if s.Journal.Dropped() != 22 {
		t.Fatalf("dropped = %d, want 22", s.Journal.Dropped())
	}

	var b strings.Builder
	if err := s.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace after wraparound invalid JSON: %v", err)
	}
	var instants []float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "i" {
			instants = append(instants, ev.Ts)
		}
	}
	if len(instants) != 8 {
		t.Fatalf("instant events = %d, want the 8 retained", len(instants))
	}
	for i, ts := range instants {
		// Retained window is grants 22..29, stamped at virtual 23s..30s.
		if want := float64((23 + i)) * 1e6; ts != want {
			t.Errorf("instant %d ts = %v µs, want %v (virtual ordering)", i, ts, want)
		}
	}
}

// TestJournalVirtualStamp checks recording through a virtual-clock view
// stamps VTime while the base sink leaves it zero.
func TestJournalVirtualStamp(t *testing.T) {
	s := New()
	vs := s.WithVClock(func() time.Duration { return 42 * time.Second })
	s.Grant("wall", 0, 1)
	vs.Grant("virtual", 0, 1)
	snap := s.Journal.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("journal has %d events, want 2", len(snap))
	}
	if snap[0].VTime != 0 {
		t.Errorf("wall event VTime = %v, want 0", snap[0].VTime)
	}
	if snap[1].VTime != 42*time.Second {
		t.Errorf("virtual event VTime = %v, want 42s", snap[1].VTime)
	}
}
