package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"powerstack/internal/charz"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/fault"
	"powerstack/internal/geopm"
	"powerstack/internal/msr"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/policy"
	"powerstack/internal/units"
	"powerstack/internal/workload"
)

// testEnv builds a small pool and characterizes the configs of the given
// mixes on a scratch subset.
func testEnv(t testing.TB, mixes []workload.Mix, poolSize int) ([]*node.Node, *charz.DB) {
	t.Helper()
	c, err := cluster.New(poolSize+4, cpumodel.Quartz(), cpumodel.QuartzVariation(), 17)
	if err != nil {
		t.Fatal(err)
	}
	scratch := c.Nodes()[poolSize:]
	seen := map[string]bool{}
	db := charz.NewDB()
	for _, m := range mixes {
		for _, cfg := range m.Configs() {
			if seen[cfg.Name()] {
				continue
			}
			seen[cfg.Name()] = true
			e, err := charz.Characterize(cfg, scratch, charz.Options{
				MonitorIters: 6, BalancerIters: 40, Seed: 3, NoiseSigma: 0,
			})
			if err != nil {
				t.Fatal(err)
			}
			db.Put(e)
		}
	}
	return c.Nodes()[:poolSize], db
}

func smallWasteful() workload.Mix { return workload.WastefulPower().Scaled(36) }

func TestRunCellBasics(t *testing.T) {
	mix := smallWasteful()
	pool, db := testEnv(t, []workload.Mix{mix}, mix.TotalNodes())
	r := NewRunner(pool, db)
	r.Iters = 12
	r.NoiseSigma = 0

	budgets, err := workload.SelectBudgets(mix, db)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := r.RunCell(context.Background(), mix, policy.StaticCaps{}, "ideal", budgets.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Mix != mix.Name || cell.Policy != "StaticCaps" || cell.Budget != "ideal" {
		t.Errorf("cell header: %+v", cell)
	}
	if cell.SystemTime <= 0 || cell.TotalEnergy <= 0 || cell.TotalFlops <= 0 {
		t.Errorf("aggregates: %+v", cell)
	}
	if len(cell.IterTimes) != 12 || len(cell.IterEnergies) != 12 {
		t.Errorf("iteration series lengths: %d, %d", len(cell.IterTimes), len(cell.IterEnergies))
	}
	if cell.Utilization <= 0 || cell.Utilization > 1.05 {
		t.Errorf("utilization = %v", cell.Utilization)
	}
	if cell.Overrun != 0 {
		t.Errorf("StaticCaps overrun = %v", cell.Overrun)
	}
	// The pool must be fully released.
	for _, n := range pool {
		p, err := n.PowerLimit()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.Watts()-240) > 0.5 {
			t.Fatalf("node %s limit %v not reset after cell", n.ID, p)
		}
	}
}

func TestRunCellValidation(t *testing.T) {
	mix := smallWasteful()
	pool, db := testEnv(t, []workload.Mix{mix}, 4)
	r := NewRunner(pool, db)
	if _, err := r.RunCell(context.Background(), mix, policy.StaticCaps{}, "min", 1000); err == nil {
		t.Error("oversized mix accepted")
	}
	r.Iters = 0
	if _, err := r.RunCell(context.Background(), mix, policy.StaticCaps{}, "min", 1000); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestWastefulPowerSavingsShape(t *testing.T) {
	// The core Figure 8 story on the WastefulPower mix at the max budget:
	// MixedAdaptive saves energy over StaticCaps, and more than
	// JobAdaptive saves (marker d).
	mix := smallWasteful()
	pool, db := testEnv(t, []workload.Mix{mix}, mix.TotalNodes())
	r := NewRunner(pool, db)
	r.Iters = 20
	r.NoiseSigma = 0

	mr, err := r.RunMix(context.Background(), mix)
	if err != nil {
		t.Fatal(err)
	}
	maxSv := mr.Savings["max"]
	mixed := maxSv[policy.MixedAdaptive{}.Name()]
	if mixed.Energy <= 0.02 {
		t.Errorf("MixedAdaptive energy savings at max = %v, want clearly positive", mixed.Energy)
	}
	// Time must not be sacrificed materially for those energy savings.
	if mixed.Time < -0.03 {
		t.Errorf("MixedAdaptive time regression = %v", mixed.Time)
	}
	// Figure 7 structure: Precharacterized exceeds tight budgets.
	pre := mr.Cells["min"][policy.Precharacterized{}.Name()]
	if pre.Overrun <= 0 {
		t.Errorf("Precharacterized at min: overrun = %v, want positive", pre.Overrun)
	}
	if pre.Utilization <= 1.0 {
		t.Errorf("Precharacterized min utilization = %v, want > 100%%", pre.Utilization)
	}
	// Budget-respecting policies stay within budget at ideal.
	for _, pname := range []string{"StaticCaps", "MinimizeWaste", "JobAdaptive", "MixedAdaptive"} {
		c := mr.Cells["ideal"][pname]
		if c.Utilization > 1.02 {
			t.Errorf("%s ideal utilization = %v, want <= 1", pname, c.Utilization)
		}
	}
}

func TestOnlineCellMatchesOfflineMixedAdaptive(t *testing.T) {
	// The execution-time protocol should land in the same savings
	// neighborhood as the pre-characterized MixedAdaptive at the ideal
	// budget — that is the whole point of the future-work proposal.
	mix := smallWasteful()
	pool, db := testEnv(t, []workload.Mix{mix}, mix.TotalNodes())
	r := NewRunner(pool, db)
	r.Iters = 30
	r.NoiseSigma = 0
	budgets, err := workload.SelectBudgets(mix, db)
	if err != nil {
		t.Fatal(err)
	}
	base, err := r.RunCell(context.Background(), mix, policy.StaticCaps{}, "ideal", budgets.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := r.RunCell(context.Background(), mix, policy.MixedAdaptive{}, "ideal", budgets.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	online, err := r.RunOnlineCell(context.Background(), mix, "ideal", budgets.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	if online.Policy != OnlinePolicyName {
		t.Errorf("policy label = %q", online.Policy)
	}
	sOff, err := ComputeSavings(base, offline)
	if err != nil {
		t.Fatal(err)
	}
	sOn, err := ComputeSavings(base, online)
	if err != nil {
		t.Fatal(err)
	}
	if sOn.Time < 0.3*sOff.Time-0.01 {
		t.Errorf("online time savings %v far below offline %v", sOn.Time, sOff.Time)
	}
	if sOn.Energy < 0.3*sOff.Energy-0.01 {
		t.Errorf("online energy savings %v far below offline %v", sOn.Energy, sOff.Energy)
	}
	// Budget respected.
	if online.Utilization > 1.02 {
		t.Errorf("online utilization = %v", online.Utilization)
	}
	// Pool limits restored.
	for _, n := range pool {
		p, err := n.PowerLimit()
		if err != nil {
			t.Fatal(err)
		}
		if p.Watts() < 239 {
			t.Fatalf("node %s limit %v not reset after online cell", n.ID, p)
		}
	}
}

func TestComputeSavingsValidation(t *testing.T) {
	a := Cell{Mix: "A", Budget: "min", IterTimes: []float64{1}, IterEnergies: []float64{1}}
	b := Cell{Mix: "B", Budget: "min", IterTimes: []float64{1}, IterEnergies: []float64{1}}
	if _, err := ComputeSavings(a, b); err == nil {
		t.Error("mismatched mixes accepted")
	}
	c := Cell{Mix: "A", Budget: "min"}
	if _, err := ComputeSavings(a, c); err == nil {
		t.Error("empty series accepted")
	}
}

func TestComputeSavingsMath(t *testing.T) {
	base := Cell{
		Mix: "m", Budget: "b", Policy: "StaticCaps",
		SystemTime:   100e9, // 100 s
		TotalEnergy:  1000 * units.Joule,
		EDP:          100000,
		FlopsPerW:    10,
		IterTimes:    []float64{1, 1, 1, 1},
		IterEnergies: []float64{10, 10, 10, 10},
	}
	pol := base
	pol.Policy = "MixedAdaptive"
	pol.SystemTime = 93e9 // 7% faster
	pol.TotalEnergy = 890 * units.Joule
	pol.EDP = 82770
	pol.FlopsPerW = 11.2
	pol.IterTimes = []float64{0.93, 0.93, 0.93, 0.93}
	pol.IterEnergies = []float64{8.9, 8.9, 8.9, 8.9}
	s, err := ComputeSavings(base, pol)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Time-0.07) > 1e-9 {
		t.Errorf("time savings = %v, want 0.07", s.Time)
	}
	if math.Abs(s.Energy-0.11) > 1e-9 {
		t.Errorf("energy savings = %v, want 0.11", s.Energy)
	}
	if math.Abs(s.FlopsPerW-0.12) > 1e-9 {
		t.Errorf("flops/W increase = %v, want 0.12", s.FlopsPerW)
	}
	if s.EDP <= 0 {
		t.Errorf("EDP savings = %v", s.EDP)
	}
	// Constant savings series: CI is zero, and the constant shift is
	// significant.
	if s.TimeCI != 0 || s.EnergyCI != 0 {
		t.Errorf("CIs = %v, %v, want 0", s.TimeCI, s.EnergyCI)
	}
	if !s.TimeSignificant || !s.EnergySignificant {
		t.Error("clear constant shifts not flagged significant")
	}
	// Identical series: no significance.
	same, err := ComputeSavings(base, base)
	if err != nil {
		t.Fatal(err)
	}
	if same.TimeSignificant || same.EnergySignificant {
		t.Error("identical series flagged significant")
	}
}

func TestFindHeadline(t *testing.T) {
	g := &Grid{Mixes: []MixResult{
		{Savings: map[string]map[string]Savings{
			"min": {"MixedAdaptive": {Time: 0.07, Energy: 0.01, Mix: "HighPower", Budget: "min"}},
			"max": {"MixedAdaptive": {Time: 0.01, Energy: 0.11, Mix: "HighPower", Budget: "max"}},
		}},
	}}
	h := g.FindHeadline()
	if h.MaxTimeSavings.Time != 0.07 || h.MaxTimeSavings.Budget != "min" {
		t.Errorf("max time savings = %+v", h.MaxTimeSavings)
	}
	if h.MaxEnergySavings.Energy != 0.11 || h.MaxEnergySavings.Budget != "max" {
		t.Errorf("max energy savings = %+v", h.MaxEnergySavings)
	}
}

func TestPairedSeedsAcrossPolicies(t *testing.T) {
	// The same mix under two budget-respecting policies must see
	// identical noise streams: with zero allocation differences the
	// iteration times would match exactly. We verify by running
	// StaticCaps twice.
	mix := workload.NeedUsedPower().Scaled(18)
	pool, db := testEnv(t, []workload.Mix{mix}, mix.TotalNodes())
	r := NewRunner(pool, db)
	r.Iters = 6
	a, err := r.RunCell(context.Background(), mix, policy.StaticCaps{}, "x", 18*200*units.Watt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunCell(context.Background(), mix, policy.StaticCaps{}, "x", 18*200*units.Watt)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.IterTimes {
		if a.IterTimes[k] != b.IterTimes[k] {
			t.Fatal("iteration noise not reproducible across cells")
		}
	}
}

func TestAssembleZeroElapsedKeepsSeriesFinite(t *testing.T) {
	// A degenerate report with zero elapsed time has no time base to
	// attribute per-iteration energy by; the attribution must contribute
	// nothing instead of dividing by zero, which would poison IterEnergies
	// with NaN and silently propagate into the savings CIs and Welch
	// tests.
	mix := workload.Mix{Name: "degenerate", Jobs: []workload.JobSpec{
		{ID: "a", Config: cluster.SurveyWorkload(), Nodes: 2},
		{ID: "b", Config: cluster.SurveyWorkload(), Nodes: 2},
	}}
	r := &Runner{Iters: 3}
	reports := []geopm.Report{
		{JobID: "a", Elapsed: 0, TotalEnergy: 100 * units.Joule,
			IterationTimes: make([]time.Duration, 3)},
		{JobID: "b", Elapsed: 3 * time.Second, TotalEnergy: 60 * units.Joule,
			IterationTimes: []time.Duration{time.Second, time.Second, time.Second}},
	}
	cell, err := r.assemble(mix, policy.StaticCaps{}, "min", 400*units.Watt, 0, reports)
	if err != nil {
		t.Fatal(err)
	}
	for k, e := range cell.IterEnergies {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("IterEnergies[%d] = %v, want finite", k, e)
		}
		// Job b's share still lands: 20 J per iteration.
		if math.Abs(e-20) > 1e-9 {
			t.Errorf("IterEnergies[%d] = %v, want 20 (job b only)", k, e)
		}
	}
	for k, s := range cell.IterTimes {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("IterTimes[%d] = %v, want finite", k, s)
		}
	}
	if math.IsNaN(cell.MeanPower.Watts()) || math.IsInf(cell.MeanPower.Watts(), 0) {
		t.Errorf("MeanPower = %v, want finite", cell.MeanPower)
	}
}

func TestRunCellQuarantinesReleaseFault(t *testing.T) {
	mix := smallWasteful()
	pool, db := testEnv(t, []workload.Mix{mix}, mix.TotalNodes())
	r := NewRunner(pool, db)
	r.Iters = 6
	r.NoiseSigma = 0
	r.Obs = obs.New()
	budgets, err := workload.SelectBudgets(mix, db)
	if err != nil {
		t.Fatal(err)
	}

	// Arm a write-countdown fault on one socket's power-limit register:
	// the cell's single Apply write succeeds, then the TDP reset in
	// ReleaseAll fails. The fault deep-copies into the cell's cloned pool,
	// where the manager quarantines the node instead of failing the cell.
	errBoom := errors.New("msr_safe: write rejected")
	pool[0].Sockets()[0].Dev.ArmFault(msr.OpWrite, msr.MSRPkgPowerLimit, 1, errBoom)
	defer pool[0].Sockets()[0].Dev.SetFault(msr.MSRPkgPowerLimit, nil)

	cell, err := r.RunCell(context.Background(), mix, policy.StaticCaps{}, "ideal", budgets.Ideal)
	if err != nil {
		t.Fatalf("err = %v, want graceful quarantine instead of failure", err)
	}
	// The measurement is intact.
	if cell.TotalEnergy <= 0 || len(cell.IterTimes) != 6 {
		t.Errorf("cell not assembled: %+v", cell)
	}
	// The degradation decision is journaled, and the cell still completes.
	var quarantined, done bool
	for _, e := range r.Obs.Journal.Snapshot() {
		if e.Type == obs.EvNodeQuarantined {
			quarantined = true
		}
		if e.Type == obs.EvCell && e.Value > 0 {
			done = true
		}
	}
	if !quarantined {
		t.Error("no NodeQuarantined event journaled for the faulty node")
	}
	if !done {
		t.Error("CellDone not recorded for the completed cell")
	}
	// The original pool is untouched by the clone's quarantine; clearing
	// the armed fault leaves it fully reusable.
}

func TestFindHeadlineAllNegative(t *testing.T) {
	// A grid where MixedAdaptive loses everywhere must still report its
	// least-bad cells, with the identifying fields populated, instead of a
	// blank zero-valued Savings that reads as "0% savings in no cell".
	g := &Grid{Mixes: []MixResult{
		{Savings: map[string]map[string]Savings{
			"min": {"MixedAdaptive": {Time: -0.09, Energy: -0.02, Mix: "HighPower", Budget: "min"}},
			"max": {"MixedAdaptive": {Time: -0.03, Energy: -0.05, Mix: "HighPower", Budget: "max"}},
		}},
	}}
	h := g.FindHeadline()
	if h.MaxTimeSavings.Time != -0.03 || h.MaxTimeSavings.Budget != "max" {
		t.Errorf("max time savings = %+v, want the -3%% max-budget cell", h.MaxTimeSavings)
	}
	if h.MaxEnergySavings.Energy != -0.02 || h.MaxEnergySavings.Budget != "min" {
		t.Errorf("max energy savings = %+v, want the -2%% min-budget cell", h.MaxEnergySavings)
	}
	if h.MaxTimeSavings.Mix == "" || h.MaxEnergySavings.Mix == "" {
		t.Error("headline cells missing identifying fields")
	}
}

func TestOnlineCellJournalOrdering(t *testing.T) {
	mix := smallWasteful()
	pool, db := testEnv(t, []workload.Mix{mix}, mix.TotalNodes())
	r := NewRunner(pool, db)
	r.Iters = 4
	r.NoiseSigma = 0
	r.Obs = obs.New()
	budgets, err := workload.SelectBudgets(mix, db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunOnlineCell(context.Background(), mix, "ideal", budgets.Ideal); err != nil {
		t.Fatal(err)
	}
	events := r.Obs.Journal.Snapshot()
	if len(events) < 3 {
		t.Fatalf("journal has %d events, want a full cell trace", len(events))
	}
	scope := mix.Name + "/ideal/" + OnlinePolicyName
	first, last := events[0], events[len(events)-1]
	if first.Type != obs.EvCell || first.Scope != scope || first.Value != 0 {
		t.Errorf("first event = %+v, want CellStart for %s", first, scope)
	}
	if last.Type != obs.EvCell || last.Scope != scope || last.Value <= 0 {
		t.Errorf("last event = %+v, want CellDone for %s", last, scope)
	}
	// Node- and coordinator-level events must sit inside the start/done
	// bracket — CellStart precedes all of them.
	var inner int
	for _, e := range events[1 : len(events)-1] {
		if e.Type == obs.EvCell {
			t.Errorf("unexpected cell event inside the bracket: %+v", e)
		}
		inner++
	}
	if inner == 0 {
		t.Error("no node/coordinator events between CellStart and CellDone")
	}
}

func TestSwappedSinkReachesNextCell(t *testing.T) {
	// Sink attachment must be per-cell, not latched on first use: a sink
	// swapped in between cells has to see the very next cell's node-level
	// events.
	mix := smallWasteful()
	pool, db := testEnv(t, []workload.Mix{mix}, mix.TotalNodes())
	r := NewRunner(pool, db)
	r.Iters = 4
	r.NoiseSigma = 0
	budgets, err := workload.SelectBudgets(mix, db)
	if err != nil {
		t.Fatal(err)
	}

	first := obs.New()
	r.Obs = first
	if _, err := r.RunCell(context.Background(), mix, policy.StaticCaps{}, "ideal", budgets.Ideal); err != nil {
		t.Fatal(err)
	}
	second := obs.New()
	r.Obs = second
	if _, err := r.RunCell(context.Background(), mix, policy.StaticCaps{}, "ideal", budgets.Ideal); err != nil {
		t.Fatal(err)
	}

	countNodeEvents := func(s *obs.Sink) int {
		n := 0
		for _, e := range s.Journal.Snapshot() {
			if e.Type == obs.EvLimitWrite {
				n++
			}
		}
		return n
	}
	if countNodeEvents(first) == 0 {
		t.Error("first sink saw no node-level events")
	}
	if countNodeEvents(second) == 0 {
		t.Error("swapped-in sink saw no node-level events — attachment latched")
	}
}

func TestGridEquivalence(t *testing.T) {
	// The parallel grid must be indistinguishable from the sequential one:
	// same seeds, cell-isolated pools, and index-addressed assembly make
	// every Cell and Savings value byte-identical at any parallelism.
	mixes := []workload.Mix{
		workload.WastefulPower().Scaled(24),
		workload.NeedUsedPower().Scaled(18),
	}
	poolSize := 0
	for _, m := range mixes {
		if n := m.TotalNodes(); n > poolSize {
			poolSize = n
		}
	}
	pool, db := testEnv(t, mixes, poolSize)

	run := func(parallelism int) *Grid {
		r := NewRunner(pool, db)
		r.Iters = 5
		r.NoiseSigma = 0
		r.Parallelism = parallelism
		g, err := r.Run(context.Background(), mixes)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return g
	}
	seq := run(1)
	par := run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel grid differs from sequential grid")
	}
}

// gridMixes is the small two-mix grid the equivalence tests share, with
// a pool that fits the larger mix.
func gridMixes(t testing.TB) ([]workload.Mix, []*node.Node, *charz.DB) {
	t.Helper()
	mixes := []workload.Mix{
		workload.WastefulPower().Scaled(24),
		workload.NeedUsedPower().Scaled(18),
	}
	poolSize := 0
	for _, m := range mixes {
		poolSize = max(poolSize, m.TotalNodes())
	}
	pool, db := testEnv(t, mixes, poolSize)
	return mixes, pool, db
}

func jobRuns(s *obs.Sink, outcome string) int {
	return int(s.Metrics.Counter(obs.MetricJobRuns, "outcome", outcome).Value())
}

// TestRunKeyUsesExactCapBits pins the run key to the caps' exact bits:
// caps that print alike at units.Power's four significant digits but
// differ in their bits program different limits and must not share a run.
func TestRunKeyUsesExactCapBits(t *testing.T) {
	mixes := []workload.Mix{{Name: "m", Jobs: []workload.JobSpec{
		{ID: "a", Config: cluster.SurveyWorkload(), Nodes: 2},
	}}}
	lo, hi := 212*units.Watt, 212.01*units.Watt
	if fmt.Sprintf("%v", []units.Power{lo}) != fmt.Sprintf("%v", []units.Power{hi}) {
		t.Fatalf("caps %v and %v print differently; the test needs caps that print alike", lo, hi)
	}
	assign := func(second units.Power, perCell bool) ([]plannedCell, int) {
		cells := []plannedCell{
			{alloc: policy.Allocation{"a": {lo, lo}}},
			{alloc: policy.Allocation{"a": {lo, second}}},
		}
		return cells, assignRuns(mixes, cells, perCell)
	}
	if cells, n := assign(lo, false); n != 1 || len(cells[1].owned) != 0 || cells[1].runs[0] != cells[0].runs[0] {
		t.Errorf("identical caps: %d runs, second cell owns %v, want one shared run", n, cells[1].owned)
	}
	if cells, n := assign(hi, false); n != 2 || len(cells[1].owned) != 1 {
		t.Errorf("caps %v vs %v: %d runs, second cell owns %v, want two runs", lo, hi, n, cells[1].owned)
	}
	if _, n := assign(lo, true); n != 2 {
		t.Errorf("per-cell keys: %d runs, want 2", n)
	}
}

// TestGridCellsMatchSingleCells checks that sharing runs across cells is
// exact: with noise on, every cell of a grid equals the cell a fresh
// single-cell RunCell returns, and the grid did share runs.
func TestGridCellsMatchSingleCells(t *testing.T) {
	mixes, pool, db := gridMixes(t)
	r := NewRunner(pool, db)
	r.Iters = 5
	r.Parallelism = 2
	r.Obs = obs.New()
	g, err := r.Run(context.Background(), mixes)
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for _, mr := range g.Mixes {
		for _, level := range mr.Budgets.Levels() {
			for _, p := range policy.All() {
				single := NewRunner(pool, db)
				single.Iters = r.Iters
				cell, err := single.RunCell(context.Background(), mr.Mix, p, level.Name, level.Power)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(mr.Cells[level.Name][p.Name()], cell) {
					t.Errorf("%s/%s/%s: grid cell differs from the single cell", mr.Mix.Name, level.Name, p.Name())
				}
				pairs += len(mr.Mix.Jobs)
			}
		}
	}
	executed, shared := jobRuns(r.Obs, obs.JobRunExecuted), jobRuns(r.Obs, obs.JobRunShared)
	t.Logf("%d job runs executed, %d shared", executed, shared)
	if shared == 0 || executed+shared != pairs {
		t.Errorf("runs executed %d + shared %d, want some shared and %d in all", executed, shared, pairs)
	}
}

// TestFaultGridSharesNothing checks that under a fault plan every cell runs
// every job of its mix itself.
func TestFaultGridSharesNothing(t *testing.T) {
	mixes, pool, db := gridMixes(t)
	r := NewRunner(pool, db)
	r.Iters = 3
	r.NoiseSigma = 0
	r.Obs = obs.New()
	r.Faults = fault.NewPlan(fault.Injection{Kind: fault.SlowNode, Node: pool[0].ID, Factor: 1.5})
	if _, err := r.Run(context.Background(), mixes); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, m := range mixes {
		want += 3 * len(policy.All()) * len(m.Jobs)
	}
	if got := jobRuns(r.Obs, obs.JobRunExecuted); got != want {
		t.Errorf("executed %d runs, want cells x jobs = %d", got, want)
	}
	if got := jobRuns(r.Obs, obs.JobRunShared); got != 0 {
		t.Errorf("shared %d runs under a fault plan, want 0", got)
	}
}

// countdownCtx reports cancellation from its n-th Err call on.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) <= 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelStopsAtRunBoundary checks that a cell checks for cancellation
// before each job run: cancelled once its first run is under way, the cell
// completes that run, skips the rest, and returns the cancellation.
func TestCancelStopsAtRunBoundary(t *testing.T) {
	mix := smallWasteful()
	pool, db := testEnv(t, []workload.Mix{mix}, mix.TotalNodes())
	r := NewRunner(pool, db)
	r.Iters = 3
	r.Obs = obs.New()
	// Err calls: the grid's entry check, the cell's, the first run's, then
	// the second run's, which sees the cancellation.
	ctx := &countdownCtx{Context: context.Background()}
	ctx.n.Store(4)
	_, err := r.RunCell(ctx, mix, policy.StaticCaps{}, "x", 36*200*units.Watt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := jobRuns(r.Obs, obs.JobRunExecuted); got != 1 {
		t.Errorf("executed %d runs, want 1 of %d", got, len(mix.Jobs))
	}
}

func benchGrid(b *testing.B, parallelism int) {
	mixes, pool, db := gridMixes(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRunner(pool, db)
		r.Iters = 10
		r.NoiseSigma = 0
		r.Parallelism = parallelism
		if _, err := r.Run(context.Background(), mixes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridSequential(b *testing.B) { benchGrid(b, 1) }
func BenchmarkGridParallel(b *testing.B)   { benchGrid(b, 0) }
