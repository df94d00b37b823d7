package fault

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"powerstack/internal/charz"
	"powerstack/internal/cpumodel"
	"powerstack/internal/kernel"
	"powerstack/internal/msr"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/units"
)

func testPool(t *testing.T, n int) []*node.Node {
	t.Helper()
	spec := cpumodel.Quartz()
	pool := make([]*node.Node, n)
	for i := range pool {
		nd, err := node.New(fmt.Sprintf("quartz%04d", i+1), &spec, 1.0)
		if err != nil {
			t.Fatalf("node.New: %v", err)
		}
		pool[i] = nd
	}
	return pool
}

func TestEmptyPlanIsInert(t *testing.T) {
	var p *Plan
	if !p.Empty() {
		t.Fatal("nil plan should be empty")
	}
	p.Arm(testPool(t, 1), nil)
	if p.DropoutWindows() != nil || p.RequestDropped("j0", 3) {
		t.Fatal("nil plan injected something")
	}
	if got := p.Timeline(); got != nil {
		t.Fatalf("nil plan scheduled transitions: %v", got)
	}
	db := charz.NewDB()
	if p.CorruptDB(db, nil) != db {
		t.Fatal("nil plan should return the database unchanged")
	}
}

func TestValidate(t *testing.T) {
	good := NewPlan(
		Injection{Kind: MSRWriteFault, Node: "a", After: 2},
		Injection{Kind: SlowNode, Node: "b", Factor: 1.5},
		Injection{Kind: RequestDropout, Job: "j0", Round: 3, Count: 2},
		Injection{Kind: CharzCorruption, Config: "cfg"},
	)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := []Injection{
		{Kind: MSRWriteFault},                       // no node
		{Kind: SlowNode, Node: "a", Factor: 0.9},    // factor <= 1
		{Kind: RequestDropout, Job: "j0", Count: 0}, // count <= 0
		{Kind: CharzCorruption},                     // no config
		{Kind: Kind("bogus"), Node: "a"},            // unknown kind
	}
	for i, in := range bad {
		if err := NewPlan(in).Validate(); err == nil {
			t.Errorf("bad injection %d accepted", i)
		}
	}
}

func TestArmCountdownFaults(t *testing.T) {
	pool := testPool(t, 2)
	sink := obs.NewWithCapacity(64)
	p := NewPlan(
		Injection{Kind: MSRWriteFault, Node: "quartz0001", After: 1},
		Injection{Kind: MSRReadFault, Node: "quartz0002", After: 1},
		Injection{Kind: MSRWriteFault, Node: "absent", After: 1}, // skipped
	)
	p.Arm(pool, sink)

	dev := pool[0].Sockets()[0].Dev
	if err := dev.Write(msr.MSRPkgPowerLimit, 0); err != nil {
		t.Fatalf("first write within countdown budget failed: %v", err)
	}
	err := dev.Write(msr.MSRPkgPowerLimit, 0)
	if !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("second write: got %v, want ErrInjectedWrite", err)
	}

	rdev := pool[1].Sockets()[0].Dev
	if _, err := rdev.Read(msr.MSRPkgEnergyStatus); err != nil {
		t.Fatalf("first read within countdown budget failed: %v", err)
	}
	if _, err := rdev.Read(msr.MSRPkgEnergyStatus); !errors.Is(err, ErrInjectedRead) {
		t.Fatalf("second read: got %v, want ErrInjectedRead", err)
	}

	events := sink.Journal.Snapshot()
	if len(events) != 2 {
		t.Fatalf("journaled %d events, want 2 (absent node skipped)", len(events))
	}
	for _, e := range events {
		if e.Type != obs.EvFaultInjected {
			t.Errorf("event type %q, want %q", e.Type, obs.EvFaultInjected)
		}
	}
}

func TestArmSlowNodeAtStart(t *testing.T) {
	pool := testPool(t, 1)
	NewPlan(Injection{Kind: SlowNode, Node: "quartz0001", Factor: 1.5}).Arm(pool, nil)
	if got := pool[0].Degradation(); got != 1.5 {
		t.Fatalf("degradation = %v, want 1.5", got)
	}
	// A timed slow-node (At > 0) must NOT arm at start.
	pool2 := testPool(t, 1)
	NewPlan(Injection{Kind: SlowNode, Node: "quartz0001", Factor: 1.5, At: time.Minute}).Arm(pool2, nil)
	if got := pool2[0].Degradation(); got != 1 {
		t.Fatalf("timed slow-node armed at start: degradation = %v", got)
	}
}

func TestCrashRepair(t *testing.T) {
	pool := testPool(t, 1)
	n := pool[0]
	Crash(n)
	if _, err := n.Sockets()[0].Dev.Read(msr.MSRPkgEnergyStatus); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("crashed node read: got %v, want ErrNodeDown", err)
	}
	if err := n.Sockets()[1].Dev.Write(msr.MSRPkgPowerLimit, 0); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("crashed node write (socket 1): got %v, want ErrNodeDown", err)
	}
	Repair(n)
	if _, err := n.Sockets()[0].Dev.Read(msr.MSRPkgEnergyStatus); err != nil {
		t.Fatalf("repaired node read failed: %v", err)
	}
}

// TestTimelineTransitions pins the crash, repair, and slow-window
// transitions Timeline schedules: each at its exact firing time, sorted by
// time, ties kept in declaration order.
func TestTimelineTransitions(t *testing.T) {
	p := NewPlan(
		Injection{Kind: NodeCrash, Node: "a", At: 10 * time.Second, RepairAfter: 20 * time.Second},
		Injection{Kind: SlowNode, Node: "b", At: 5 * time.Second, Duration: 10 * time.Second, Factor: 2},
		Injection{Kind: SlowNode, Node: "c", At: 10 * time.Second, Factor: 1.5},
		Injection{Kind: NodeCrash, Node: "d", At: 20 * time.Second},
	)
	want := []TimedTransition{
		{At: 5 * time.Second, Transition: Transition{Kind: SlowNode, Node: "b", Factor: 2}},
		{At: 10 * time.Second, Transition: Transition{Kind: NodeCrash, Node: "a"}},
		{At: 10 * time.Second, Transition: Transition{Kind: SlowNode, Node: "c", Factor: 1.5}},
		{At: 15 * time.Second, Transition: Transition{Kind: SlowNode, Node: "b", Factor: 1}},
		{At: 20 * time.Second, Transition: Transition{Kind: NodeCrash, Node: "d"}},
		{At: 30 * time.Second, Transition: Transition{Kind: NodeRepair, Node: "a"}},
	}
	if got := p.Timeline(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Timeline = %+v, want %+v", got, want)
	}
}

func TestDropoutWindows(t *testing.T) {
	p := NewPlan(Injection{Kind: TelemetryDropout, Node: "a", At: 10 * time.Second, Duration: 5 * time.Second})
	cases := []struct {
		t    time.Duration
		want bool
	}{
		{9 * time.Second, false},
		{10 * time.Second, true},
		{14 * time.Second, true},
		{15 * time.Second, false},
	}
	windows := p.DropoutWindows()
	for _, c := range cases {
		if got := dropoutCompiled(windows, "a", c.t); got != c.want {
			t.Errorf("dropout(a, %v) = %v, want %v", c.t, got, c.want)
		}
	}
	if dropoutCompiled(windows, "b", 12*time.Second) {
		t.Error("dropout leaked to untargeted node")
	}
	// Open-ended dropout (Duration 0).
	open := NewPlan(Injection{Kind: TelemetryDropout, Node: "a", At: time.Second})
	if !dropoutCompiled(open.DropoutWindows(), "a", time.Hour) {
		t.Error("open-ended dropout should cover the rest of the run")
	}
}

// DropoutActive is the reference oracle for DropoutWindows: it scans the
// whole plan for a dropout window covering the node's sample at elapsed
// time t.
func (p *Plan) DropoutActive(nodeID string, t time.Duration) bool {
	if p.Empty() {
		return false
	}
	for _, in := range p.Injections {
		if in.Kind != TelemetryDropout || in.Node != nodeID {
			continue
		}
		if t >= in.At && (in.Duration <= 0 || t < in.At+in.Duration) {
			return true
		}
	}
	return false
}

// dropoutCompiled answers DropoutActive's question from the compiled
// windows, as the telemetry hierarchy does.
func dropoutCompiled(windows map[string][]Window, nodeID string, t time.Duration) bool {
	for _, w := range windows[nodeID] {
		if w.Contains(t) {
			return true
		}
	}
	return false
}

// TestDropoutWindowsMatchOracle checks the compiled windows against the
// plan scan over random plans: overlapping, open-ended and back-to-back
// windows, several per node, mixed with injections of other kinds.
func TestDropoutWindowsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 26))
	nodes := []string{"a", "b", "c", "d"}
	kinds := []Kind{TelemetryDropout, TelemetryDropout, MSRWriteFault, SlowNode, BudgetDrop}
	for trial := 0; trial < 200; trial++ {
		p := &Plan{}
		for k := rng.IntN(8); k > 0; k-- {
			p.Injections = append(p.Injections, Injection{
				Kind:     kinds[rng.IntN(len(kinds))],
				Node:     nodes[rng.IntN(len(nodes))],
				At:       time.Duration(rng.IntN(20)) * time.Second,
				Duration: time.Duration(rng.IntN(6)-1) * time.Second,
				Factor:   0.5,
			})
		}
		windows := p.DropoutWindows()
		hasDropout := false
		for _, in := range p.Injections {
			hasDropout = hasDropout || in.Kind == TelemetryDropout
		}
		if (windows != nil) != hasDropout {
			t.Fatalf("trial %d: windows %v for a plan with dropouts=%v", trial, windows, hasDropout)
		}
		for _, id := range append(nodes, "e") {
			for at := -time.Second; at <= 30*time.Second; at += 500 * time.Millisecond {
				if got, want := dropoutCompiled(windows, id, at), p.DropoutActive(id, at); got != want {
					t.Fatalf("trial %d: node %s at %v: compiled %v, oracle %v (plan %+v)", trial, id, at, got, want, p.Injections)
				}
			}
		}
	}
}

func TestRequestDropped(t *testing.T) {
	p := NewPlan(Injection{Kind: RequestDropout, Job: "j1", Round: 3, Count: 2})
	for round, want := range map[int]bool{2: false, 3: true, 4: true, 5: false} {
		if got := p.RequestDropped("j1", round); got != want {
			t.Errorf("RequestDropped(j1, %d) = %v, want %v", round, got, want)
		}
	}
	if p.RequestDropped("j2", 3) {
		t.Error("dropout leaked to untargeted job")
	}
}

func TestCorruptDBLeavesOriginal(t *testing.T) {
	db := charz.NewDB()
	cfg := kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1}
	db.Put(charz.Entry{
		Config:              cfg,
		Hosts:               4,
		MonitorHostPower:    230 * units.Watt,
		MonitorMaxHostPower: 260 * units.Watt,
		MonitorCriticalPwr:  240 * units.Watt,
		NeededCritical:      220 * units.Watt,
		NeededMean:          200 * units.Watt,
	})
	p := NewPlan(Injection{Kind: CharzCorruption, Config: cfg.Name()})
	sink := obs.NewWithCapacity(16)
	out := p.CorruptDB(db, sink)
	if out == db {
		t.Fatal("CorruptDB should clone before poisoning")
	}
	e := out.Entries[cfg.Name()]
	if !math.IsNaN(e.MonitorHostPower.Watts()) || e.Valid() {
		t.Fatalf("corrupted entry still valid: %+v", e)
	}
	if orig := db.Entries[cfg.Name()]; !orig.Valid() {
		t.Fatalf("original database was poisoned: %+v", orig)
	}
	if n := len(sink.Journal.Snapshot()); n != 1 {
		t.Fatalf("journaled %d corruption events, want 1", n)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	ids := make([]string, 20)
	for i := range ids {
		ids[i] = fmt.Sprintf("quartz%04d", i+1)
	}
	opts := GenOptions{
		Seed:           42,
		MSRWriteFaults: 3,
		MSRReadFaults:  2,
		Crashes:        2,
		RepairFraction: 0.5,
		SlowNodes:      2,
		Dropouts:       3,
		Horizon:        time.Hour,
		CorruptConfigs: []string{"cfgA"},
		DropRequests:   map[string]int{"j0": 2, "j1": 1},
	}
	a, b := Generate(ids, opts), Generate(ids, opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	counts := map[Kind]int{}
	for _, in := range a.Injections {
		counts[in.Kind]++
	}
	wantCounts := map[Kind]int{
		MSRWriteFault: 3, MSRReadFault: 2, NodeCrash: 2,
		SlowNode: 2, TelemetryDropout: 3, CharzCorruption: 1, RequestDropout: 2,
	}
	if !reflect.DeepEqual(counts, wantCounts) {
		t.Fatalf("injection counts %v, want %v", counts, wantCounts)
	}
	// A different seed must reshuffle something.
	opts.Seed = 43
	if reflect.DeepEqual(a, Generate(ids, opts)) {
		t.Fatal("different seed produced identical plan")
	}
	// Clamping: asking for more faults than nodes.
	few := Generate(ids[:2], GenOptions{Seed: 1, Crashes: 10})
	if got := len(few.CrashedAtStart()); got != 2 {
		t.Fatalf("clamped crash count = %d, want 2", got)
	}
}

func TestImpactedAndCrashedNodes(t *testing.T) {
	p := NewPlan(
		Injection{Kind: NodeCrash, Node: "a", At: time.Minute},
		Injection{Kind: MSRWriteFault, Node: "b", After: 1},
		Injection{Kind: MSRWriteFault, Node: "b", After: 3}, // duplicate node
		Injection{Kind: MSRReadFault, Node: "c", After: 1},  // not impactful for capacity
	)
	if got := p.CrashedAtStart(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("CrashedAtStart = %v, want [a]", got)
	}
	if got := p.ImpactedNodes(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("ImpactedNodes = %v, want [a b]", got)
	}
}

func TestBudgetDropValidate(t *testing.T) {
	good := NewPlan(Injection{Kind: BudgetDrop, At: time.Minute, Duration: 5 * time.Minute, Factor: 0.5})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid budget drop rejected: %v", err)
	}
	bad := []Injection{
		{Kind: BudgetDrop, Factor: 0},                     // zero factor
		{Kind: BudgetDrop, Factor: 1},                     // no-op factor
		{Kind: BudgetDrop, Factor: 1.5},                   // amplification
		{Kind: BudgetDrop, Factor: 0.5, At: -time.Second}, // negative onset
	}
	for i, in := range bad {
		if err := NewPlan(in).Validate(); err == nil {
			t.Errorf("bad budget drop %d accepted", i)
		}
	}
}

func TestBudgetFactorWindows(t *testing.T) {
	p := NewPlan(
		Injection{Kind: BudgetDrop, At: 10 * time.Second, Duration: 10 * time.Second, Factor: 0.5},
		Injection{Kind: BudgetDrop, At: 15 * time.Second, Duration: 10 * time.Second, Factor: 0.8},
	)
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{9 * time.Second, 1},
		{10 * time.Second, 0.5}, // first window opens (inclusive)
		{15 * time.Second, 0.4}, // overlap compounds multiplicatively
		{20 * time.Second, 0.8}, // first window closed (exclusive end)
		{25 * time.Second, 1},   // both closed
	}
	for _, c := range cases {
		if got := p.BudgetFactor(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("BudgetFactor(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	// Open-ended drop (Duration 0) covers the rest of the run.
	open := NewPlan(Injection{Kind: BudgetDrop, At: time.Second, Factor: 0.5})
	if got := open.BudgetFactor(time.Hour); got != 0.5 {
		t.Errorf("open-ended BudgetFactor(1h) = %v, want 0.5", got)
	}
	if got := open.BudgetFactor(0); got != 1 {
		t.Errorf("open-ended BudgetFactor(0) = %v, want 1 before onset", got)
	}
}

func TestBudgetDropTimeline(t *testing.T) {
	p := NewPlan(Injection{Kind: BudgetDrop, At: 10 * time.Second, Duration: 5 * time.Second, Factor: 0.5})
	want := []TimedTransition{
		{At: 10 * time.Second, Transition: Transition{Kind: BudgetDrop, Factor: 0.5}},
		{At: 15 * time.Second, Transition: Transition{Kind: BudgetDrop, Factor: 1}},
	}
	if got := p.Timeline(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Timeline = %+v, want %+v", got, want)
	}
}

func TestGenerateBudgetDrops(t *testing.T) {
	ids := []string{"quartz0001", "quartz0002"}
	opts := GenOptions{Seed: 7, BudgetDrops: 3, Horizon: time.Hour}
	a, b := Generate(ids, opts), Generate(ids, opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different budget-drop plans")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	n := 0
	for _, in := range a.Injections {
		if in.Kind != BudgetDrop {
			continue
		}
		n++
		if in.Factor <= 0 || in.Factor >= 1 {
			t.Errorf("generated factor %v out of (0,1)", in.Factor)
		}
		if in.At < 0 || in.At > time.Hour {
			t.Errorf("generated onset %v outside horizon", in.At)
		}
	}
	if n != 3 {
		t.Fatalf("generated %d budget drops, want 3", n)
	}
}
