package telemetry

import (
	"fmt"
	"testing"
	"time"

	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/node"
	"powerstack/internal/units"
)

// recursiveSample is the recursive hierarchy walk, kept only as the oracle
// the one production sample loop is pinned against: leaves read their
// nodes (journaling every hold as it is taken), interiors sum their
// children in child order.
func recursiveSample(d *Domain, ts time.Time) units.Power {
	if d.Node != nil {
		if d.leafSample(ts) {
			d.sink.TelemetryHold(d.Name, d.power.Watts())
		}
		return d.power
	}
	var total units.Power
	for _, c := range d.Children {
		total += recursiveSample(c, ts)
	}
	d.power = total
	return total
}

// samePowers fails unless both hierarchies (built to the same shape) hold
// bit-identical power in every domain.
func samePowers(t *testing.T, a, b *Domain, tag string) {
	t.Helper()
	for i, ea := range a.sweep {
		eb := b.sweep[i].d
		if ea.d.Name != eb.Name || ea.d.power != eb.power {
			t.Fatalf("%s: %s power %v != %s power %v", tag, ea.d.Name, ea.d.power, eb.Name, eb.power)
		}
	}
}

// TestLinearSweepBitIdentical pins the full sample pass — the dirty-set
// loop over the flat post-order sweep with every leaf marked —
// bit-identical to the recursive walk in every domain after every sample,
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
	if rootA.Find("room00") == nil {
		t.Fatal("expected a room tier at 200 single-node PDUs")
	}
	ts := time.Unix(1000, 0)
	for round := 0; round < 4; round++ {
		pa := recursiveSample(rootA, ts)
		pb := rootB.Sample(ts)
		if pa != pb {
			t.Fatalf("round %d: recursive %v != full pass %v", round, pa, pb)
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
// facility→pdu→node shape.
func TestRoomTierOnlyAboveThreshold(t *testing.T) {
	nodes := testNodes(t, RoomThreshold)
	root, err := BuildHierarchy(nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range root.Children {
		if c.Node == nil && len(c.Children) > 0 && c.Children[0].Node == nil {
			t.Fatalf("unexpected third tier under %s at %d PDUs", c.Name, RoomThreshold)
		}
	}
	if got := len(root.Children); got != RoomThreshold {
		t.Fatalf("root fan-out = %d, want %d PDUs", got, RoomThreshold)
	}
}

// TestFindIndexed verifies the root's O(1) Find agrees with the recursive
// search, including misses and subtree lookups.
func TestFindIndexed(t *testing.T) {
	nodes := testNodes(t, 40)
	root, err := BuildHierarchy(nodes, 4)
	if err != nil {
		t.Fatal(err)
	}
	if root.byName == nil {
		t.Fatal("BuildHierarchy root has no name index")
	}
	for _, name := range []string{"facility", "pdu000", "pdu009", nodes[0].ID, nodes[39].ID} {
		got := root.Find(name)
		if got == nil || got.Name != name {
			t.Fatalf("Find(%q) = %v", name, got)
		}
	}
	if root.Find("no-such-domain") != nil {
		t.Error("Find of a missing name returned a domain")
	}
	// Subtree Find still works without an index.
	pdu := root.Children[2]
	if pdu.byName != nil {
		t.Fatal("non-root domain unexpectedly indexed")
	}
	if got := pdu.Find(nodes[8].ID); got == nil || got.Name != nodes[8].ID {
		t.Fatalf("subtree Find = %v", got)
	}
	if pdu.Find(nodes[0].ID) != nil {
		t.Error("subtree Find escaped its subtree")
	}
}

// benchRoot builds a BuildHierarchy tree over nLeaves single-socket-spec
// nodes, for lookup/sample benchmarks.
func benchRoot(b *testing.B, nLeaves int) *Domain {
	b.Helper()
	spec := cpumodel.Quartz()
	nodes := make([]*node.Node, nLeaves)
	for i := range nodes {
		n, err := node.New(fmt.Sprintf("quartz%06d", i+1), spec, 1)
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

// BenchmarkFind100kLeaves measures Find on a 100k-leaf hierarchy: the
// indexed root lookup is a map hit regardless of machine size.
func BenchmarkFind100kLeaves(b *testing.B) {
	root := benchRoot(b, 100_000)
	names := []string{"quartz000001", "quartz050000", "quartz100000", "room42", "facility"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if root.Find(names[i%len(names)]) == nil {
			b.Fatal("lookup miss")
		}
	}
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
