package telemetry

import (
	"fmt"
	"math"
	"testing"
	"time"

	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/node"
	"powerstack/internal/units"
)

// fullSample is the reference full pass the one production sample loop is
// pinned against, written apart from SampleDirty: it reads every leaf in
// ordinal order (journaling every hold as it is taken), then sums every
// PDU, every room when the tree has more than RoomThreshold PDUs, and the
// root, each over its children in child order.
func fullSample(h *Hierarchy, ts time.Time) units.Power {
	for i, n := range h.nodes {
		if h.leafSample(i, ts) {
			h.sink.TelemetryHold(n.ID, h.power[i].Watts())
		}
	}
	for p := range h.pdu {
		var total units.Power
		for i := p * h.pduSize; i < (p+1)*h.pduSize && i < len(h.power); i++ {
			total += h.power[i]
		}
		h.pdu[p] = total
	}
	top := h.pdu
	if len(h.pdu) > RoomThreshold {
		for r := range h.room {
			var total units.Power
			for p := r * PDUsPerRoom; p < (r+1)*PDUsPerRoom && p < len(h.pdu); p++ {
				total += h.pdu[p]
			}
			h.room[r] = total
		}
		top = h.room
	}
	var total units.Power
	for _, p := range top {
		total += p
	}
	h.total = total
	return total
}

// tierNames labels tiers' entries in failure messages.
var tierNames = [4]string{"leaf", "pdu", "room", "root"}

// tiers returns every tier's powers, leaves first and the root last.
func tiers(h *Hierarchy) [4][]units.Power {
	return [4][]units.Power{h.power, h.pdu, h.room, {h.total}}
}

// diffTiers describes the first entry whose power differs bit for bit
// between two tier sets, or returns "" when every entry agrees.
func diffTiers(a, b [4][]units.Power) string {
	for k := range a {
		if len(a[k]) != len(b[k]) {
			return fmt.Sprintf("%s tier has %d entries != %d", tierNames[k], len(a[k]), len(b[k]))
		}
		for i := range a[k] {
			if math.Float64bits(float64(a[k][i])) != math.Float64bits(float64(b[k][i])) {
				return fmt.Sprintf("%s %d power %v != %v", tierNames[k], i, a[k][i], b[k][i])
			}
		}
	}
	return ""
}

// samePowers fails unless both hierarchies (built to the same shape) hold
// bit-identical power in every tier.
func samePowers(t *testing.T, a, b *Hierarchy, tag string) {
	t.Helper()
	if d := diffTiers(tiers(a), tiers(b)); d != "" {
		t.Fatalf("%s: %s", tag, d)
	}
}

// TestLinearSweepBitIdentical pins the full sample pass — the dirty-set
// loop with every leaf marked — bit-identical to the reference full pass in
// every tier after every sample,
// on a tree deep enough to include the room tier (pduSize 1 over 200 nodes
// forces >RoomThreshold PDUs), with live power flowing through the leaves.
func TestLinearSweepBitIdentical(t *testing.T) {
	src := testNodes(t, 200)
	nodesA := cluster.ClonePool(src)
	nodesB := cluster.ClonePool(src)
	rootA, err := BuildHierarchy(nodesA, 1)
	if err != nil {
		t.Fatal(err)
	}
	rootB, err := BuildHierarchy(nodesB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rootA.room == nil {
		t.Fatal("expected a room tier at 200 single-node PDUs")
	}
	ts := time.Unix(1000, 0)
	for round := 0; round < 4; round++ {
		pa := fullSample(rootA, ts)
		pb := rootB.Sample(ts)
		if pa != pb {
			t.Fatalf("round %d: reference %v != Sample %v", round, pa, pb)
		}
		samePowers(t, rootA, rootB, fmt.Sprintf("round %d", round))
		elA := runIterations(t, nodesA, 2)
		elB := runIterations(t, nodesB, 2)
		if elA != elB {
			t.Fatalf("round %d: pools diverged (%v vs %v)", round, elA, elB)
		}
		ts = ts.Add(elA)
	}
}

// TestRoomTierOnlyAboveThreshold pins the small-N tree shape: at or below
// RoomThreshold PDUs the hierarchy stays the original two-level
// facility→pdu→node shape, and one PDU more adds rooms of PDUsPerRoom PDUs.
func TestRoomTierOnlyAboveThreshold(t *testing.T) {
	nodes := testNodes(t, RoomThreshold+1)
	root, err := BuildHierarchy(nodes[:RoomThreshold], 1)
	if err != nil {
		t.Fatal(err)
	}
	if root.room != nil {
		t.Fatalf("unexpected room tier at %d PDUs", RoomThreshold)
	}
	if got := len(root.pdu); got != RoomThreshold {
		t.Fatalf("root fan-out = %d, want %d PDUs", got, RoomThreshold)
	}
	root, err = BuildHierarchy(nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(root.room), (RoomThreshold+PDUsPerRoom)/PDUsPerRoom; got != want {
		t.Fatalf("%d PDUs: %d rooms, want %d", RoomThreshold+1, got, want)
	}
}

// benchRoot builds a BuildHierarchy tree over nLeaves single-socket-spec
// nodes, for the sample benchmarks.
func benchRoot(b *testing.B, nLeaves int) *Hierarchy {
	b.Helper()
	spec := cpumodel.Quartz()
	nodes := make([]*node.Node, nLeaves)
	for i := range nodes {
		n, err := node.New(fmt.Sprintf("quartz%06d", i+1), &spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = n
	}
	root, err := BuildHierarchy(nodes, 16)
	if err != nil {
		b.Fatal(err)
	}
	return root
}

// BenchmarkSampleSweep100kLeaves measures the full sample pass (every leaf
// marked) over the same tree.
func BenchmarkSampleSweep100kLeaves(b *testing.B) {
	root := benchRoot(b, 100_000)
	ts := time.Unix(1000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts = ts.Add(time.Minute)
		root.Sample(ts)
	}
}
