package telemetry

import (
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
	root   *Domain
	sink   *obs.Sink
	roots  []units.Power
	powers [][]units.Power // per sample: every sweep entry's power
	holds  [][]string      // per sample: hosts journaled as held, in order
}

// TestSampleDirtyFanOutBitIdentical pins chunked leaf reads against the
// inline loop: the same scenario — energy flowing on changing leaf sets, a
// dropout window over a powered node, a crashed and repaired node, a
// pinned leaf whose MSR read-fault countdown fires mid-run and one whose
// countdown is still running at the end — sampled with 3-leaf chunks on 2
// and 8 workers produces identical root values, every domain's power after
// every sample, the same countdown positions on the read-fault devices, and
// the same telemetry_hold journal in ascending leaf order.
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
		if run != nil {
			root.SetFanOut(run, 3)
		}
		mark := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				root.MarkLeafDirty(i)
			}
		}
		seen := 0
		sample := func(k int) {
			p := root.SampleDirty(at(k))
			w.roots = append(w.roots, p)
			powers := make([]units.Power, len(root.sweep))
			for i, e := range root.sweep {
				powers[i] = e.d.power
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

	want := world(nil) // inline
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
	for _, workers := range []int{2, 8} {
		got := world(goRunner(workers))
		for k := range want.roots {
			if got.roots[k] != want.roots[k] {
				t.Fatalf("%d workers, sample %d: root %v != inline %v", workers, k, got.roots[k], want.roots[k])
			}
			if len(got.holds[k]) != len(want.holds[k]) {
				t.Fatalf("%d workers, sample %d: holds %v != inline %v", workers, k, got.holds[k], want.holds[k])
			}
			for i := range want.holds[k] {
				if got.holds[k][i] != want.holds[k][i] {
					t.Fatalf("%d workers, sample %d: holds %v != inline %v", workers, k, got.holds[k], want.holds[k])
				}
			}
			for i, e := range want.root.sweep {
				if got.powers[k][i] != want.powers[k][i] {
					t.Fatalf("%d workers, sample %d: %s power %v != inline %v", workers, k, e.d.Name, got.powers[k][i], want.powers[k][i])
				}
			}
		}
		for s, su := range got.nodes[counting].Sockets() {
			if g := readsLeft(su.Dev); g != left[s] {
				t.Fatalf("%d workers: socket %d has %d reads left before the fault, inline %d", workers, s, g, left[s])
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
