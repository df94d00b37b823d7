package telemetry

import (
	"fmt"
	"testing"
	"time"

	"powerstack/internal/cluster"
	"powerstack/internal/fault"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/units"
)

// incrementalTwin builds two identical hierarchies over cloned pools: A
// samples through the reference full pass, B through the dirty-set pass.
// The deep pduSize-1 shape forces the room tier (from RoomThreshold nodes
// up) so tier re-sums cross three levels.
func incrementalTwin(t *testing.T, n int) (nodesA, nodesB []*node.Node, rootA, rootB *Hierarchy) {
	t.Helper()
	src := testNodes(t, n)
	nodesA = cluster.ClonePool(src)
	nodesB = cluster.ClonePool(src)
	var err error
	rootA, err = BuildHierarchy(nodesA, 1)
	if err != nil {
		t.Fatal(err)
	}
	rootB, err = BuildHierarchy(nodesB, 1)
	if err != nil {
		t.Fatal(err)
	}
	return nodesA, nodesB, rootA, rootB
}

// sampleBoth samples both hierarchies at ts and asserts the dirty-set side
// agrees with the reference everywhere: root power, and every tier entry's
// power (a skipped entry's kept value must equal what the reference just
// recomputed).
func sampleBoth(t *testing.T, rootA, rootB *Hierarchy, ts time.Time, tag string) {
	t.Helper()
	pa := fullSample(rootA, ts)
	pb := rootB.SampleDirty(ts)
	if pa != pb {
		t.Fatalf("%s: root power diverged: reference %v != dirty-set %v", tag, pa, pb)
	}
	samePowers(t, rootA, rootB, tag)
}

// holdEvents extracts the TelemetryHold journal sequence (host, value).
func holdEvents(s *obs.Sink) []obs.Event {
	var out []obs.Event
	for _, e := range s.Journal.Snapshot() {
		if e.Type == obs.EvTelemetryHold {
			out = append(out, obs.Event{Type: e.Type, Host: e.Host, Value: e.Value})
		}
	}
	return out
}

// TestIncrementalMatchesFullSweep drives twin hierarchies through the full
// fault repertoire — jobs crediting energy, a crash and repair, a telemetry
// dropout window over a powered node, and an armed MSR read-fault countdown
// on a pinned leaf — asserting after every sample that incremental
// dirty-set sampling is bit-identical to the reference full pass in every
// tier, including the TelemetryHold journal cadence and the sample at which
// the read-fault countdown fires.
func TestIncrementalMatchesFullSweep(t *testing.T) {
	nodesA, nodesB, rootA, rootB := incrementalTwin(t, 200)

	const crashed, dropped, coldDropped, metered = 10, 50, 80, 120
	mk := func(pool []*node.Node) *fault.Plan {
		return fault.NewPlan(
			fault.Injection{Kind: fault.TelemetryDropout, Node: pool[dropped].ID,
				At: 240 * time.Second, Duration: 60 * time.Second},
			fault.Injection{Kind: fault.TelemetryDropout, Node: pool[coldDropped].ID,
				At: 390 * time.Second, Duration: 60 * time.Second},
			fault.Injection{Kind: fault.MSRReadFault, Node: pool[metered].ID, After: 5},
		)
	}
	planA, planB := mk(nodesA), mk(nodesB)
	sinkA, sinkB := obs.New(), obs.New()
	start := time.Unix(1000, 0)
	planA.Arm(nodesA, sinkA)
	planB.Arm(nodesB, sinkB)
	rootA.SetFaultPlan(planA, start, sinkA)
	rootB.SetFaultPlan(planB, start, sinkB)
	rootB.PinLeafDirty(metered)

	// markJob mirrors the facility's dirty discipline on the incremental
	// side: every node whose energy counters moved is marked.
	markJob := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rootB.MarkLeafDirty(i)
		}
	}
	at := func(k int) time.Time { return start.Add(time.Duration(k) * 30 * time.Second) }

	sampleBoth(t, rootA, rootB, at(0), "prime")
	runIterations(t, nodesA[0:4], 2)
	runIterations(t, nodesB[0:4], 2)
	markJob(0, 4)
	sampleBoth(t, rootA, rootB, at(1), "job1 active")
	sampleBoth(t, rootA, rootB, at(2), "idle")
	sampleBoth(t, rootA, rootB, at(3), "idle2")
	if got := len(rootB.dirty); got >= 50 {
		t.Fatalf("dirty set did not shrink while idle: %d leaves", got)
	}

	fault.Crash(nodesA[crashed])
	fault.Crash(nodesB[crashed])
	rootB.MarkLeafDirty(crashed)
	sampleBoth(t, rootA, rootB, at(4), "crash")
	sampleBoth(t, rootA, rootB, at(5), "crashed-hold")
	fault.Repair(nodesA[crashed])
	fault.Repair(nodesB[crashed])
	rootB.MarkLeafDirty(crashed)
	sampleBoth(t, rootA, rootB, at(6), "repair-reprime")

	runIterations(t, nodesA[dropped:dropped+4], 3)
	runIterations(t, nodesB[dropped:dropped+4], 3)
	markJob(dropped, dropped+4)
	sampleBoth(t, rootA, rootB, at(7), "job2 active")
	// Dropout window [240s, 300s) opens: the facility marks the leaf at
	// the window-start sample so the hold is taken, not skipped.
	rootB.MarkLeafDirty(dropped)
	sampleBoth(t, rootA, rootB, at(8), "dropout-hold")
	runIterations(t, nodesA[dropped:dropped+4], 2)
	runIterations(t, nodesB[dropped:dropped+4], 2)
	markJob(dropped, dropped+4)
	sampleBoth(t, rootA, rootB, at(9), "dropout-hold-with-energy")
	sampleBoth(t, rootA, rootB, at(10), "dropout-over")
	// The metered node's countdown (After=5) has been consumed read by
	// read; the pin kept its read count equal to the full pass's, so the dead
	// branch fires at the same sample on both sides.
	sampleBoth(t, rootA, rootB, at(11), "read-fault")
	sampleBoth(t, rootA, rootB, at(12), "read-fault-hold")

	// The cold-dropout regression: a leaf that was clean and skipped for
	// many samples enters a dropout window [390s, 450s), gains energy while
	// held, and is read again when the window ends. The full pass integrates
	// that read from the sample just before the window (its last normal
	// read); the incremental side must not integrate from the leaf's stale
	// pre-skip lastTime, or the window energy is spread over the wrong Δt.
	rootB.MarkLeafDirty(coldDropped)
	sampleBoth(t, rootA, rootB, at(13), "cold-dropout-hold")
	runIterations(t, nodesA[coldDropped:coldDropped+2], 2)
	runIterations(t, nodesB[coldDropped:coldDropped+2], 2)
	markJob(coldDropped, coldDropped+2)
	sampleBoth(t, rootA, rootB, at(14), "cold-dropout-hold-with-energy")
	sampleBoth(t, rootA, rootB, at(15), "cold-dropout-over")
	sampleBoth(t, rootA, rootB, at(16), "cold-dropout-settled")

	ha, hb := holdEvents(sinkA), holdEvents(sinkB)
	if len(ha) == 0 {
		t.Fatal("scenario produced no TelemetryHold events")
	}
	if len(ha) != len(hb) {
		t.Fatalf("hold journal cadence diverged: reference %d events, dirty-set %d", len(ha), len(hb))
	}
	for i := range ha {
		if ha[i] != hb[i] {
			t.Fatalf("hold event %d diverged: %+v != %+v", i, ha[i], hb[i])
		}
	}
}

// TestIncrementalDisableExact pins switching from incremental to full
// sampling: after dirty-set passes (leaving stale lastTime on clean
// leaves), full passes produce values identical to a hierarchy walked in
// full all along — a clean leaf's energy did not move, so the longer
// window still integrates to zero.
func TestIncrementalDisableExact(t *testing.T) {
	nodesA, nodesB, rootA, rootB := incrementalTwin(t, 64)
	at := func(k int) time.Time { return time.Unix(1000, 0).Add(time.Duration(k) * 30 * time.Second) }

	sampleBoth(t, rootA, rootB, at(0), "prime")
	runIterations(t, nodesA[0:4], 2)
	runIterations(t, nodesB[0:4], 2)
	for i := 0; i < 4; i++ {
		rootB.MarkLeafDirty(i)
	}
	sampleBoth(t, rootA, rootB, at(1), "active")
	sampleBoth(t, rootA, rootB, at(2), "idle")

	for k := 3; k <= 6; k++ {
		if k == 4 {
			runIterations(t, nodesA[8:12], 2)
			runIterations(t, nodesB[8:12], 2)
		}
		pa := fullSample(rootA, at(k))
		pb := rootB.Sample(at(k))
		if pa != pb {
			t.Fatalf("full pass %d after dirty passes: %v != %v", k, pa, pb)
		}
		samePowers(t, rootA, rootB, fmt.Sprintf("full pass %d", k))
	}
}

// TestMarkLeafDirtyBounds pins the range clamping of the marking API:
// out-of-range marks are no-ops, duplicate marks queue nothing, and a
// one-leaf hierarchy reads its leaf once per sample.
func TestMarkLeafDirtyBounds(t *testing.T) {
	nodes := testNodes(t, 8)
	root, err := BuildHierarchy(nodes, 4)
	if err != nil {
		t.Fatal(err)
	}
	root.MarkLeafDirty(-1)
	root.MarkLeafDirty(len(nodes))
	root.PinLeafDirty(-1)
	root.PinLeafDirty(len(nodes))
	if got := len(root.dirty); got != len(nodes) {
		t.Fatalf("dirty set = %d, want %d (only the initial seeding)", got, len(nodes))
	}
	root.MarkLeafDirty(3) // already queued: idempotent
	if got := len(root.dirty); got != len(nodes) {
		t.Fatalf("duplicate mark queued: %d", got)
	}
	root.SampleDirty(time.Unix(1000, 0))
	root.PinLeafDirty(1)
	root.PinLeafDirty(1)
	if got := len(root.dirty); got != 1 {
		t.Fatalf("dirty set after one pin = %d leaves, want 1", got)
	}
	solo, err := BuildHierarchy(nodes[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		if p := solo.Sample(time.Unix(int64(1000+30*k), 0)); p != solo.power[0] {
			t.Fatalf("one-leaf sample %d returned %v, leaf holds %v", k, p, solo.power[0])
		}
		if solo.seq != uint64(k) || solo.visit[0] != uint64(k) {
			t.Fatalf("one-leaf sample %d: dirty set at sample %d, leaf last read at %d", k, solo.seq, solo.visit[0])
		}
	}
}

// BenchmarkIncrementalSample is the zero-alloc gate on the dirty-set
// sample hot path: a steady-state sample over a 20k-leaf hierarchy with a
// churning 64-leaf dirty set must not allocate.
func BenchmarkIncrementalSample(b *testing.B) {
	root := benchRoot(b, 20_000)
	n := len(root.nodes)
	ts := time.Unix(1000, 0)
	for k := 0; k < 2; k++ { // prime: first sample visits every leaf
		ts = ts.Add(30 * time.Second)
		root.SampleDirty(ts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink units.Power
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			root.MarkLeafDirty((i*37 + j*997) % n)
		}
		ts = ts.Add(30 * time.Second)
		sink += root.SampleDirty(ts)
	}
	_ = sink
}
