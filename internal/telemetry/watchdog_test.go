package telemetry

import (
	"testing"
	"time"

	"powerstack/internal/obs"
	"powerstack/internal/units"
)

// TestWatchdogClampFloorsAtMinLimit drives the watchdog against nodes
// already programmed to their minimum settable limit: the violation is
// still detected, but no clamp may be counted (the RAPL range clamps the
// write back to the current limit) and Check must not error.
func TestWatchdogClampFloorsAtMinLimit(t *testing.T) {
	nodes := testNodes(t, 2)
	for _, n := range nodes {
		if _, err := n.SetPowerLimit(n.MinLimit()); err != nil {
			t.Fatal(err)
		}
	}
	root, err := BuildHierarchy(nodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A budget far below even the floored draw forces a violation every
	// sample.
	w, err := NewWatchdog(root, 10*units.Watt)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(0, 0)
	if _, _, err := w.Check(ts); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		elapsed := runIterations(t, nodes, 2)
		ts = ts.Add(elapsed)
		_, violated, err := w.Check(ts)
		if err != nil {
			t.Fatal(err)
		}
		if !violated {
			t.Fatalf("round %d: no violation at floored limits", round)
		}
	}
	if w.Violations == 0 {
		t.Error("no violations recorded")
	}
	if w.Clamps != 0 {
		t.Errorf("%d clamps counted below the settable floor", w.Clamps)
	}
	for _, n := range nodes {
		lim, err := n.PowerLimit()
		if err != nil {
			t.Fatal(err)
		}
		if lim < n.MinLimit() {
			t.Errorf("node %s limit %v fell below floor %v", n.ID, lim, n.MinLimit())
		}
	}
}

// TestWatchdogRecordsObservability repeats the clamp scenario with a sink
// attached and checks the decision events and counters land.
func TestWatchdogRecordsObservability(t *testing.T) {
	nodes := testNodes(t, 4)
	root, err := BuildHierarchy(nodes, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWatchdog(root, 4*180*units.Watt)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.New()
	w.Obs = sink
	ts := time.Unix(0, 0)
	if _, _, err := w.Check(ts); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		elapsed := runIterations(t, nodes, 2)
		ts = ts.Add(elapsed)
		if _, _, err := w.Check(ts); err != nil {
			t.Fatal(err)
		}
	}
	if w.Violations == 0 || w.Clamps == 0 {
		t.Fatalf("scenario did not trip the watchdog: %d/%d", w.Violations, w.Clamps)
	}
	byType := map[obs.EventType]int{}
	for _, e := range sink.Journal.Snapshot() {
		byType[e.Type]++
	}
	if byType[obs.EvViolation] != w.Violations {
		t.Errorf("journal has %d violations, watchdog counted %d", byType[obs.EvViolation], w.Violations)
	}
	if byType[obs.EvClamp] != w.Clamps {
		t.Errorf("journal has %d clamps, watchdog counted %d", byType[obs.EvClamp], w.Clamps)
	}
	if got := sink.Metrics.Counter(obs.MetricClamps).Value(); got != float64(w.Clamps) {
		t.Errorf("clamp counter = %v, want %d", got, w.Clamps)
	}
	if got := sink.Metrics.Gauge(obs.MetricPowerWatts, "domain", "facility").Value(); got <= 0 {
		t.Errorf("facility power gauge = %v", got)
	}
	// Clamp events carry the limit transition on their host.
	for _, e := range sink.Journal.Snapshot() {
		if e.Type == obs.EvClamp {
			if e.Host == "" || e.Value <= 0 || e.Aux <= e.Value {
				t.Errorf("clamp event malformed: %+v", e)
			}
			break
		}
	}
}
