package telemetry

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powerstack/internal/cluster"
	"powerstack/internal/fault"
	"powerstack/internal/msr"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/units"
)

// goRunner is a Runner over workers goroutines claiming tasks from a
// shared counter, so chunks land on workers in no fixed order.
func goRunner(workers int) Runner {
	return func(n int, fn func(task, worker int)) {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
					fn(i, w)
				}
			}(w)
		}
		wg.Wait()
	}
}

// fanOutWorld is one hierarchy driven through the fan-out scenario, with
// what the scenario observed of it.
type fanOutWorld struct {
	nodes  []*node.Node
	root   *Hierarchy
	sink   *obs.Sink
	roots  []units.Power
	powers [][4][]units.Power // per sample: every tier's powers
	holds  [][]string         // per sample: hosts journaled as held, in order
}

// TestSampleDirtyFanOutBitIdentical pins chunked leaf reads against the
// reference full pass: the same scenario — energy flowing on changing leaf
// sets, a dropout window over a powered node, a crashed and repaired node,
// a pinned leaf whose MSR read-fault countdown fires mid-run and one whose
// countdown is still running at the end — sampled by SampleDirty in 3-leaf
// chunks inline and on 2 and 8 workers produces identical root values,
// every tier's power after every sample, the same countdown positions on
// the read-fault devices, and the same telemetry_hold journal in ascending
// leaf order.
func TestSampleDirtyFanOutBitIdentical(t *testing.T) {
	const (
		leaves               = 40
		dropped, crashed     = 12, 20
		metered, readAfter   = 30, 4
		counting, countAfter = 35, 20
	)
	src := testNodes(t, leaves)
	start := time.Unix(1000, 0)
	at := func(k int) time.Time { return start.Add(time.Duration(k) * 30 * time.Second) }
	// world runs the scenario through SampleDirty on run, or through the
	// reference full pass when run is nil.
	world := func(run Runner) *fanOutWorld {
		w := &fanOutWorld{nodes: cluster.ClonePool(src), sink: obs.New()}
		root, err := BuildHierarchy(w.nodes, 4)
		if err != nil {
			t.Fatal(err)
		}
		w.root = root
		plan := fault.NewPlan(
			fault.Injection{Kind: fault.TelemetryDropout, Node: w.nodes[dropped].ID, At: 60 * time.Second, Duration: 60 * time.Second},
			fault.Injection{Kind: fault.MSRReadFault, Node: w.nodes[metered].ID, After: readAfter},
			fault.Injection{Kind: fault.MSRReadFault, Node: w.nodes[counting].ID, After: countAfter},
		)
		plan.Arm(w.nodes, w.sink)
		root.SetFaultPlan(plan, start, w.sink)
		root.PinLeafDirty(metered)
		root.PinLeafDirty(counting)
		root.SetFanOut(run, 3)
		mark := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				root.MarkLeafDirty(i)
			}
		}
		seen := 0
		sample := func(k int) {
			var p units.Power
			if run == nil {
				p = fullSample(root, at(k))
			} else {
				p = root.SampleDirty(at(k))
			}
			w.roots = append(w.roots, p)
			var powers [4][]units.Power
			for i, tier := range tiers(root) {
				powers[i] = slices.Clone(tier)
			}
			w.powers = append(w.powers, powers)
			var held []string
			events := w.sink.Journal.Snapshot()
			for _, e := range events[seen:] {
				if e.Type == obs.EvTelemetryHold {
					held = append(held, e.Host)
				}
			}
			seen = len(events)
			w.holds = append(w.holds, held)
		}
		sample(0)
		runIterations(t, w.nodes[0:9], 2)
		mark(0, 9)
		sample(1)
		fault.Crash(w.nodes[crashed])
		mark(crashed, crashed+1)
		runIterations(t, w.nodes[10:16], 3)
		mark(10, 16) // includes the dropout leaf as its window opens
		sample(2)
		runIterations(t, w.nodes[10:16], 1)
		mark(10, 16)
		sample(3)
		fault.Repair(w.nodes[crashed])
		mark(crashed, crashed+1)
		runIterations(t, w.nodes[0:4], 2)
		mark(0, 4)
		sample(4)
		for k := 5; k < 9; k++ {
			runIterations(t, w.nodes[k*4:k*4+6], 1)
			mark(k*4, k*4+6)
			sample(k)
		}
		return w
	}

	want := world(nil)
	heldOnce := map[string]bool{}
	for _, held := range want.holds {
		for _, host := range held {
			heldOnce[host] = true
		}
	}
	for _, ord := range []int{dropped, crashed, metered} {
		if !heldOnce[want.nodes[ord].ID] {
			t.Fatalf("leaf %d never took a hold: the scenario misses a branch", ord)
		}
	}
	if heldOnce[want.nodes[counting].ID] {
		t.Fatal("the running countdown fired: the scenario is too long")
	}
	leafOrd := map[string]int{}
	for i, n := range want.nodes {
		leafOrd[n.ID] = i
	}
	for k, held := range want.holds {
		for i := 1; i < len(held); i++ {
			if leafOrd[held[i-1]] >= leafOrd[held[i]] {
				t.Fatalf("sample %d: holds out of leaf order: %v", k, held)
			}
		}
	}
	// The countdown position: how many healthy reads each device of the
	// counting leaf still has before its armed fault answers.
	sockets := want.nodes[counting].Sockets()
	left := make([]int, len(sockets))
	for s, su := range sockets {
		left[s] = readsLeft(su.Dev)
	}
	if left[0] == 0 || left[0] == countAfter {
		t.Fatalf("countdown left at %d of %d reads: the scenario does not exercise it", left[0], countAfter)
	}
	for _, workers := range []int{1, 2, 8} {
		run := goRunner(workers)
		if workers == 1 {
			run = inline
		}
		got := world(run)
		for k := range want.roots {
			if got.roots[k] != want.roots[k] {
				t.Fatalf("%d workers, sample %d: root %v != reference %v", workers, k, got.roots[k], want.roots[k])
			}
			if !slices.Equal(got.holds[k], want.holds[k]) {
				t.Fatalf("%d workers, sample %d: holds %v != reference %v", workers, k, got.holds[k], want.holds[k])
			}
			if d := diffTiers(got.powers[k], want.powers[k]); d != "" {
				t.Fatalf("%d workers, sample %d: %s (SampleDirty != reference)", workers, k, d)
			}
		}
		for s, su := range got.nodes[counting].Sockets() {
			if g := readsLeft(su.Dev); g != left[s] {
				t.Fatalf("%d workers: socket %d has %d reads left before the fault, reference %d", workers, s, g, left[s])
			}
		}
	}
}

// readsLeft counts the energy reads a device answers before failing,
// consuming them; bounded well above any countdown the test arms.
func readsLeft(d *msr.Device) int {
	for n := 0; n < 64; n++ {
		if _, err := d.Read(msr.MSRPkgEnergyStatus); err != nil {
			return n
		}
	}
	return 64
}
