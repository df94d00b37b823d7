package telemetry

import (
	"math"
	"testing"
	"time"

	"powerstack/internal/bsp"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/fault"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/units"
)

func testNodes(t *testing.T, n int) []*node.Node {
	t.Helper()
	c, err := cluster.New(n, cpumodel.Quartz(), cpumodel.QuartzVariation(), 31)
	if err != nil {
		t.Fatal(err)
	}
	return c.Nodes()
}

func TestBuildHierarchyShape(t *testing.T) {
	nodes := testNodes(t, 10)
	root, err := BuildHierarchy(nodes, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(root.pdu) != 3 { // 4 + 4 + 2
		t.Fatalf("pdus = %d", len(root.pdu))
	}
	if root.room != nil {
		t.Errorf("room tier over %d PDUs", len(root.pdu))
	}
	if got := len(root.power); got != 10 {
		t.Errorf("leaves = %d", got)
	}
	if _, err := BuildHierarchy(nil, 4); err == nil {
		t.Error("empty node list accepted")
	}
	if _, err := BuildHierarchy(nodes, 0); err == nil {
		t.Error("zero pdu size accepted")
	}
	if _, err := BuildHierarchy([]*node.Node{nodes[0], nil}, 4); err == nil {
		t.Error("nil node accepted")
	}
}

// runIterations advances node state so energy counters move.
func runIterations(t *testing.T, nodes []*node.Node, iters int) time.Duration {
	t.Helper()
	cfg := kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1}
	j, err := bsp.NewJob("telemetry", cfg, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	j.NoiseSigma = 0
	var elapsed time.Duration
	for k := 0; k < iters; k++ {
		ir, err := j.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		elapsed += ir.Elapsed
	}
	return elapsed
}

func TestSamplingMeasuresNodePower(t *testing.T) {
	nodes := testNodes(t, 4)
	root, err := BuildHierarchy(nodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(1000, 0)
	root.Sample(ts) // prime
	elapsed := runIterations(t, nodes, 5)
	total := root.Sample(ts.Add(elapsed))
	// Four uncapped i=8 nodes draw ~230 W each.
	if got := total.Watts(); got < 4*200 || got > 4*240 {
		t.Errorf("facility power = %v W, want ~920", got)
	}
	// The PDU tier sums its two nodes.
	if got := root.pdu[0].Watts(); got < 2*200 || got > 2*240 {
		t.Errorf("pdu power = %v W", got)
	}
	// Leaves carry their own reading.
	if got := root.power[0]; got <= 0 {
		t.Errorf("leaf power = %v", got)
	}
}

// TestLeafHoldValues pins the values a leaf substitutes when it cannot
// read its node, which the reference full pass shares with the dirty-set pass
// and so cannot check. Inside a dropout window the leaf reports and
// journals its pre-dropout power while the node keeps drawing, and the
// first read after the window integrates from the last normal read. A dead
// node reports and journals zero and re-primes on repair: energy that
// flowed before the crash never reaches a post-repair sample.
func TestLeafHoldValues(t *testing.T) {
	nodes := testNodes(t, 2)
	root, err := BuildHierarchy(nodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(1000, 0)
	at := func(sec int) time.Time { return start.Add(time.Duration(sec) * time.Second) }
	sink := obs.New()
	root.SetFaultPlan(fault.NewPlan(fault.Injection{Kind: fault.TelemetryDropout,
		Node: nodes[0].ID, At: 60 * time.Second, Duration: 60 * time.Second}), start, sink)
	dropped := func() units.Power { return root.power[0] }
	dead := func() units.Power { return root.power[1] }
	energy := func(n *node.Node) units.Energy {
		t.Helper()
		e, err := n.Energy()
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	wantHolds := func(tag string, want ...obs.Event) {
		t.Helper()
		got := holdEvents(sink)
		if len(got) != len(want) {
			t.Fatalf("%s: hold journal %+v, want %+v", tag, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: hold %d = %+v, want %+v", tag, i, got[i], want[i])
			}
		}
	}

	root.Sample(at(0))
	runIterations(t, nodes[:1], 2)
	lastRead := energy(nodes[0])
	root.Sample(at(30))
	pre := dropped()
	if pre <= 0 {
		t.Fatalf("pre-dropout power = %v, want a live reading", pre)
	}
	var holds []obs.Event
	for _, sec := range []int{60, 90} { // inside [60s, 120s)
		runIterations(t, nodes[:1], 2)
		root.Sample(at(sec))
		if got := dropped(); got != pre {
			t.Fatalf("%ds: held leaf reports %v, want pre-dropout %v", sec, got, pre)
		}
		holds = append(holds, obs.Event{Type: obs.EvTelemetryHold, Host: nodes[0].ID, Value: pre.Watts()})
	}
	wantHolds("dropout", holds...)
	runIterations(t, nodes[1:], 2)
	root.Sample(at(120))
	if got, want := dropped(), units.MeanPower(energy(nodes[0])-lastRead, 90*time.Second); got != want {
		t.Fatalf("first read after the window = %v, want %v (integrated from the last normal read)", got, want)
	}
	if dead() <= 0 {
		t.Fatalf("pre-crash power = %v, want a live reading", dead())
	}

	runIterations(t, nodes[1:], 2)
	fault.Crash(nodes[1])
	if got := root.Sample(at(150)); got != dropped() {
		t.Fatalf("facility power with a dead node = %v, want the live leaf's %v", got, dropped())
	}
	if got := dead(); got != 0 {
		t.Fatalf("dead node reports %v, want 0", got)
	}
	holds = append(holds, obs.Event{Type: obs.EvTelemetryHold, Host: nodes[1].ID, Value: 0})
	wantHolds("dead", holds...)
	fault.Repair(nodes[1])
	root.Sample(at(180))
	if got := dead(); got != 0 {
		t.Fatalf("first post-repair sample = %v, want 0 (re-prime, not pre-crash energy)", got)
	}
	primed := energy(nodes[1])
	runIterations(t, nodes[1:], 2)
	root.Sample(at(210))
	if got, want := dead(), units.MeanPower(energy(nodes[1])-primed, 30*time.Second); got != want {
		t.Fatalf("post-repair power = %v, want %v", got, want)
	}
	wantHolds("repaired", holds...)
}

func TestTopConsumers(t *testing.T) {
	nodes := testNodes(t, 4)
	root, err := BuildHierarchy(nodes, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Cap one node hard so it draws less than the others.
	if _, err := nodes[2].SetPowerLimit(140 * units.Watt); err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(0, 0)
	root.Sample(ts)
	elapsed := runIterations(t, nodes, 4)
	root.Sample(ts.Add(elapsed))
	top := root.TopConsumers(2)
	if len(top) != 2 {
		t.Fatalf("top = %d", len(top))
	}
	for _, i := range top {
		if i == 2 {
			t.Errorf("capped node %s ranked among top consumers", nodes[i].ID)
		}
	}
	if got := root.TopConsumers(99); len(got) != 4 {
		t.Errorf("oversized k = %d leaves", len(got))
	}
}

func TestWatchdogValidation(t *testing.T) {
	nodes := testNodes(t, 2)
	root, err := BuildHierarchy(nodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWatchdog(nil, 100); err == nil {
		t.Error("nil domain accepted")
	}
	if _, err := NewWatchdog(root, 0); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestWatchdogClampsOverrun(t *testing.T) {
	nodes := testNodes(t, 4)
	root, err := BuildHierarchy(nodes, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Budget well below the uncapped draw (~920 W): the watchdog must
	// observe the violation and ratchet limits down until the draw fits.
	budget := 4 * 180 * units.Power(1)
	w, err := NewWatchdog(root, budget)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(0, 0)
	if _, _, err := w.Check(ts); err != nil { // prime
		t.Fatal(err)
	}
	var p units.Power
	for round := 0; round < 12; round++ {
		elapsed := runIterations(t, nodes, 2)
		ts = ts.Add(elapsed)
		var err error
		p, _, err = w.Check(ts)
		if err != nil {
			t.Fatal(err)
		}
	}
	if w.Violations == 0 || w.Clamps == 0 {
		t.Fatalf("watchdog idle: %d violations, %d clamps", w.Violations, w.Clamps)
	}
	tol := budget.Watts() * (1 + w.Tolerance)
	if p.Watts() > tol*1.02 {
		t.Errorf("power %v W still above budget %v after enforcement", p.Watts(), budget)
	}
	// Limits were actually programmed down.
	for _, n := range nodes {
		lim, err := n.PowerLimit()
		if err != nil {
			t.Fatal(err)
		}
		if lim.Watts() >= 239 {
			t.Errorf("node %s limit %v never clamped", n.ID, lim)
		}
	}
}

func TestWatchdogQuietWithinBudget(t *testing.T) {
	nodes := testNodes(t, 2)
	root, err := BuildHierarchy(nodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWatchdog(root, 2*300*units.Power(1)) // generous
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(0, 0)
	if _, _, err := w.Check(ts); err != nil {
		t.Fatal(err)
	}
	elapsed := runIterations(t, nodes, 3)
	_, violated, err := w.Check(ts.Add(elapsed))
	if err != nil {
		t.Fatal(err)
	}
	if violated || w.Violations != 0 || w.Clamps != 0 {
		t.Errorf("false positive: violated=%v counts=%d/%d", violated, w.Violations, w.Clamps)
	}
	// Limits untouched.
	for _, n := range nodes {
		lim, _ := n.PowerLimit()
		if math.Abs(lim.Watts()-240) > 0.5 {
			t.Errorf("limit %v moved without violation", lim)
		}
	}
}

func TestTopConsumersEdgeCases(t *testing.T) {
	nodes := testNodes(t, 3)
	root, err := BuildHierarchy(nodes, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Negative k clamps to nothing rather than panicking.
	if got := root.TopConsumers(-1); len(got) != 0 {
		t.Errorf("TopConsumers(-1) = %d leaves, want 0", len(got))
	}
	if got := root.TopConsumers(0); len(got) != 0 {
		t.Errorf("TopConsumers(0) = %d leaves, want 0", len(got))
	}
	// Before any sample exists every leaf reads zero power; the call must
	// still return exactly k leaves.
	if got := root.TopConsumers(2); len(got) != 2 {
		t.Errorf("unsampled TopConsumers(2) = %d leaves", len(got))
	}
	// Ties keep ordinal order.
	if got := root.TopConsumers(3); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("unsampled TopConsumers(3) = %v, want ordinal order", got)
	}
}
