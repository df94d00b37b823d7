package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestJournalRingEviction(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Record(Event{Type: EvGrant, Iter: i})
	}
	if got := j.Total(); got != 10 {
		t.Errorf("total = %d, want 10", got)
	}
	if got := j.Dropped(); got != 6 {
		t.Errorf("dropped = %d, want 6", got)
	}
	snap := j.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("retained = %d, want 4", len(snap))
	}
	for i, e := range snap {
		wantSeq := uint64(7 + i)
		if e.Seq != wantSeq || e.Iter != int(wantSeq)-1 {
			t.Errorf("snap[%d] = seq %d iter %d, want seq %d", i, e.Seq, e.Iter, wantSeq)
		}
	}
	// Timestamps are monotonic non-decreasing oldest-first.
	for i := 1; i < len(snap); i++ {
		if snap[i].Time < snap[i-1].Time {
			t.Errorf("snapshot out of time order at %d: %v < %v", i, snap[i].Time, snap[i-1].Time)
		}
	}
}

func TestJournalExactCapacity(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 4; i++ {
		j.Record(Event{Type: EvEpoch})
	}
	if got := j.Dropped(); got != 0 {
		t.Errorf("dropped = %d at exact capacity, want 0", got)
	}
	snap := j.Snapshot()
	if len(snap) != 4 || snap[0].Seq != 1 || snap[3].Seq != 4 {
		t.Errorf("snapshot at exact capacity = %+v", snap)
	}
	// One more evicts exactly the oldest.
	j.Record(Event{Type: EvEpoch})
	snap = j.Snapshot()
	if len(snap) != 4 || snap[0].Seq != 2 || snap[3].Seq != 5 {
		t.Errorf("snapshot after first eviction = %+v", snap)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Record(Event{Type: EvGrant}) // must not panic
	if j.Total() != 0 || j.Dropped() != 0 || j.Snapshot() != nil {
		t.Error("nil journal reported state")
	}
}

func TestJournalDefaultCapacity(t *testing.T) {
	j := NewJournal(0)
	if got := cap(j.buf); got != DefaultJournalCapacity {
		t.Errorf("default capacity = %d, want %d", got, DefaultJournalCapacity)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	j := NewJournal(8)
	j.Record(Event{Type: EvGrant, Layer: "coordinator", Scope: "j1", Iter: 3, Value: 180})
	j.Record(Event{Type: EvLimitWrite, Layer: "node", Host: "node0001", Value: 150, Aux: 160})
	var b strings.Builder
	if err := j.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var events []Event
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("events JSON invalid: %v\n%s", err, b.String())
	}
	if len(events) != 2 {
		t.Fatalf("round-tripped %d events, want 2", len(events))
	}
	if events[0].Type != EvGrant || events[0].Scope != "j1" || events[0].Value != 180 {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1].Type != EvLimitWrite || events[1].Host != "node0001" || events[1].Aux != 160 {
		t.Errorf("event 1 = %+v", events[1])
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var b strings.Builder
	if err := NewJournal(4).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var events []Event
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("empty journal JSON invalid: %v", err)
	}
	if len(events) != 0 {
		t.Errorf("empty journal produced %d events", len(events))
	}
}

// traceDoc mirrors the Chrome trace JSON Array Format for validation.
type traceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		S    string         `json:"s"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteTraceValid(t *testing.T) {
	j := NewJournal(16)
	j.Record(Event{Type: EvGrant, Layer: "coordinator", Scope: "j1", Iter: 1, Value: 200})
	j.Record(Event{Type: EvLimitWrite, Layer: "node", Host: "node0002", Value: 190})
	j.Record(Event{Type: EvLimitWrite, Layer: "node", Host: "node0002", Value: 170})
	j.Record(Event{Type: EvEpoch, Layer: "geopm", Scope: "j1", Iter: 1, Value: 0.25})

	var b strings.Builder
	if err := j.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	byName := map[string]int{}
	tracks := map[string]bool{}
	for _, e := range doc.TraceEvents {
		byName[e.Name]++
		switch e.Ph {
		case "i":
			if e.S != "t" || e.PID != 1 || e.TID == 0 {
				t.Errorf("instant %q malformed: %+v", e.Name, e)
			}
		case "C":
			if len(e.Args) == 0 {
				t.Errorf("counter %q has no args", e.Name)
			}
		case "M":
			if e.Name == "thread_name" {
				tracks[e.Args["name"].(string)] = true
			}
		default:
			t.Errorf("unexpected phase %q on %q", e.Ph, e.Name)
		}
	}
	for _, want := range []string{"grant", "rapl_limit_write", "epoch", "process_name"} {
		if byName[want] == 0 {
			t.Errorf("trace missing %q events: %v", want, byName)
		}
	}
	// Power decisions carry counter tracks.
	if byName["grant_watts"] == 0 || byName["limit_watts"] != 2 {
		t.Errorf("counter samples = grant_watts %d, limit_watts %d", byName["grant_watts"], byName["limit_watts"])
	}
	// Scope and host both became named tracks.
	if !tracks["j1"] || !tracks["node0002"] {
		t.Errorf("thread_name tracks = %v", tracks)
	}
}

func TestWriteTraceEmptyJournal(t *testing.T) {
	var b strings.Builder
	if err := NewJournal(4).WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
	// Only the process_name metadata remains.
	if len(doc.TraceEvents) != 1 || doc.TraceEvents[0].Name != "process_name" {
		t.Errorf("empty trace events = %+v", doc.TraceEvents)
	}
}
