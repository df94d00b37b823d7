package obs

import (
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestNilSinkSafe drives every helper through a nil sink: the whole
// instrumentation surface must be free and panic-free when observability is
// off.
func TestNilSinkSafe(t *testing.T) {
	var s *Sink
	if s.Enabled() {
		t.Error("nil sink claims to be enabled")
	}
	s.Grant("j", 0, 100)
	s.Regrant("j", 0, 100)
	s.Epoch("geopm", "j", 1, 0.2)
	s.Realloc("j", 1, 12)
	s.LimitWrite("n", 180)
	s.MSRWrite()
	s.EnergyWrap("pkg", "n")
	s.PowerSample("facility", 900)
	s.BudgetChange("drop", 950, 900)
	s.CellStart("m", "p", "ideal")
	s.CellDone("m", "p", "ideal", 1.5)
	s.Record(Event{Type: EvGrant})
	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("nil sink wrote metrics: %q", b.String())
	}
	b.Reset()
	if err := s.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Errorf("nil sink trace invalid JSON: %v", err)
	}
}

func TestNilAllocationFree(t *testing.T) {
	var s *Sink
	allocs := testing.AllocsPerRun(100, func() {
		s.Grant("j", 1, 100)
		s.Epoch("geopm", "j", 1, 0.2)
		s.LimitWrite("n", 180)
		s.BudgetChange("drop", 200, 190)
		s.JobRuns(JobRunExecuted, 1)
	})
	if allocs != 0 {
		t.Errorf("nil sink allocated %v per run", allocs)
	}
}

// TestSinkVocabulary checks that each typed helper lands events in the
// journal and series in the registry under the documented names.
func TestSinkVocabulary(t *testing.T) {
	s := New()
	s.Grant("j1", 0, 200)
	s.Regrant("j1", 0, 200)
	s.Epoch("coordinator", "j1", 1, 0.3)
	s.Realloc("j1", 1, 15)
	s.LimitWrite("node0001", 190)
	s.MSRWrite()
	s.MSRWrite()
	s.EnergyWrap("pkg", "node0001")
	s.PowerSample("facility", 880)
	s.BudgetChange("drop", 950, 900)
	s.CellStart("WastefulPower", "MixedAdaptive", "ideal")
	s.CellDone("WastefulPower", "MixedAdaptive", "ideal", 2)

	byType := map[EventType]int{}
	for _, e := range s.Journal.Snapshot() {
		byType[e.Type]++
	}
	want := map[EventType]int{
		EvGrant: 1, EvRegrant: 1, EvEpoch: 1, EvRealloc: 1,
		EvLimitWrite: 1, EvEnergyWrap: 1,
		EvBudgetChange: 1, EvCell: 2,
	}
	for typ, n := range want {
		if byType[typ] != n {
			t.Errorf("journal has %d %s events, want %d", byType[typ], typ, n)
		}
	}

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		`powerstack_grants_total{job="j1"} 1`,
		`powerstack_grant_watts{job="j1"} 200`,
		`powerstack_regrants_total{job="j1"} 1`,
		`powerstack_iterations_total{layer="coordinator",job="j1"} 1`,
		`powerstack_balancer_reallocations_total{job="j1"} 1`,
		`powerstack_balancer_moved_watts_total{job="j1"} 15`,
		`powerstack_rapl_limit_writes_total 1`,
		`powerstack_rapl_msr_writes_total 2`,
		`powerstack_rapl_energy_wraps_total{domain="pkg"} 1`,
		`powerstack_power_watts{domain="facility"} 880`,
		`powerstack_budget_changes_total{cause="drop"} 1`,
		`powerstack_sim_cells_total{policy="MixedAdaptive"} 1`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("metrics missing %q", line)
		}
	}
	for _, hist := range []string{"powerstack_iteration_seconds", "powerstack_rapl_limit_watts", "powerstack_sim_cell_seconds"} {
		if !strings.Contains(out, "# TYPE "+hist+" histogram") {
			t.Errorf("metrics missing histogram family %s", hist)
		}
	}
}

// TestSinkConcurrency hammers one sink — registry and journal together —
// from GOMAXPROCS goroutines and asserts exact totals, mirroring how the
// sim grid's workers drive concurrent GEOPM controllers into a shared
// sink. Run with -race.
func TestSinkConcurrency(t *testing.T) {
	s := NewWithCapacity(1 << 10)
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Grant("shared", i, 150)
				s.Epoch("geopm", "shared", i, 0.05)
				s.LimitWrite("node0001", 180)
			}
		}()
	}
	wg.Wait()

	n := float64(workers * perWorker)
	if got := s.Metrics.Counter(MetricGrants, "job", "shared").Value(); got != n {
		t.Errorf("grants = %v, want %v", got, n)
	}
	if got := s.Metrics.Counter(MetricIterations, "layer", "geopm", "job", "shared").Value(); got != n {
		t.Errorf("iterations = %v, want %v", got, n)
	}
	if got := s.Metrics.Counter(MetricLimitWrites).Value(); got != n {
		t.Errorf("limit writes = %v, want %v", got, n)
	}
	if got := s.Journal.Total(); got != 3*uint64(n) {
		t.Errorf("journal total = %d, want %d", got, 3*uint64(n))
	}
	// The ring bound held and sequence numbers stayed unique.
	snap := s.Journal.Snapshot()
	if len(snap) != 1<<10 {
		t.Fatalf("retained = %d, want %d", len(snap), 1<<10)
	}
	seen := map[uint64]bool{}
	for _, e := range snap {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// TestConcurrentCellEvents hammers the cell-progress surface from many
// goroutines, as the parallel evaluation grid does: every cell's start and
// done must land in the journal and metrics without loss or races.
func TestConcurrentCellEvents(t *testing.T) {
	s := NewWithCapacity(4096)
	const workers = 8
	const cells = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; c < cells; c++ {
				s.CellStart("mix", "policy", "ideal")
				s.CellDone("mix", "policy", "ideal", 0.001)
			}
		}(w)
	}
	wg.Wait()
	var starts, dones int
	for _, e := range s.Journal.Snapshot() {
		if e.Type != EvCell {
			t.Fatalf("unexpected event type %q", e.Type)
		}
		if e.Value > 0 {
			dones++
		} else {
			starts++
		}
	}
	if starts != workers*cells || dones != workers*cells {
		t.Errorf("starts=%d dones=%d, want %d each", starts, dones, workers*cells)
	}
}
