package telemetry

import (
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
		ir, err := j.RunIterationInto(new(bsp.IterationScratch))
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
