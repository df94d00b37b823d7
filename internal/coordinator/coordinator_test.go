package coordinator

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"powerstack/internal/bsp"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/engine"
	"powerstack/internal/geopm"
	"powerstack/internal/kernel"
	"powerstack/internal/units"
)

func testJobs(t *testing.T, specs []struct {
	cfg   kernel.Config
	nodes int
}) []*bsp.Job {
	t.Helper()
	total := 0
	for _, s := range specs {
		total += s.nodes
	}
	c, err := cluster.New(total, cpumodel.Quartz(), cpumodel.QuartzVariation(), 13)
	if err != nil {
		t.Fatal(err)
	}
	pool := c.Nodes()
	var jobs []*bsp.Job
	for i, s := range specs {
		j, err := bsp.NewJob(s.cfg.Name(), s.cfg, pool[:s.nodes], uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		j.NoiseSigma = 0
		pool = pool[s.nodes:]
		jobs = append(jobs, j)
	}
	return jobs
}

func wastefulSpecs() []struct {
	cfg   kernel.Config
	nodes int
} {
	return []struct {
		cfg   kernel.Config
		nodes int
	}{
		{kernel.Config{Intensity: 8, Vector: kernel.YMM, WaitingPct: 75, Imbalance: 3}, 8},
		{kernel.Config{Intensity: 16, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 3}, 8},
		{kernel.Config{Intensity: 32, Vector: kernel.YMM, Imbalance: 1}, 8},
	}
}

func TestNewValidation(t *testing.T) {
	jobs := testJobs(t, wastefulSpecs()[:1])
	if _, err := New(0, jobs, true); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := New(1000, nil, true); err == nil {
		t.Error("no jobs accepted")
	}
}

func TestAllocateSurplusSteering(t *testing.T) {
	reqs := []Request{
		{JobID: "waiting", Needed: 1500, Min: 1088, MaxUseful: 1500}, // pinned
		{JobID: "bound", Needed: 1800, Min: 1088, MaxUseful: 1920},   // can use more
	}
	grants := Allocate(3500, reqs)
	if grants[0].Budget != 1500 {
		t.Errorf("pinned job granted %v, want its need 1500", grants[0].Budget)
	}
	// The 200 W surplus goes to the bound job, capped at MaxUseful.
	if math.Abs(grants[1].Budget.Watts()-1920) > 1 {
		t.Errorf("bound job granted %v, want 1920", grants[1].Budget)
	}
}

func TestAllocateDeficitScaling(t *testing.T) {
	reqs := []Request{
		{JobID: "a", Needed: 2000, Min: 1000, MaxUseful: 2000},
		{JobID: "b", Needed: 1500, Min: 1000, MaxUseful: 1500},
	}
	grants := Allocate(3000, reqs) // deficit of 500 over the needs
	total := grants[0].Budget + grants[1].Budget
	if math.Abs(total.Watts()-3000) > 1 {
		t.Errorf("grants total %v, want the 3000 budget", total)
	}
	// Proportional over the min..needed span: a gets 1000+1000*s, b gets
	// 1000+500*s with s = (3000-2000)/1500.
	s := 1000.0 / 1500.0
	if math.Abs(grants[0].Budget.Watts()-(1000+1000*s)) > 1 {
		t.Errorf("a granted %v", grants[0].Budget)
	}
	if math.Abs(grants[1].Budget.Watts()-(1000+500*s)) > 1 {
		t.Errorf("b granted %v", grants[1].Budget)
	}
}

func TestAllocateFloorsUnderExtremeDeficit(t *testing.T) {
	reqs := []Request{{JobID: "a", Needed: 500, Min: 400, MaxUseful: 600}}
	grants := Allocate(100, reqs)
	if grants[0].Budget != 400 {
		t.Errorf("granted %v, want the 400 floor", grants[0].Budget)
	}
}

func TestCoordinatedRunRespectsBudget(t *testing.T) {
	jobs := testJobs(t, wastefulSpecs())
	budget := 24 * 190 * units.Power(1)
	c, err := New(budget, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanPower > budget+units.Power(24) {
		t.Errorf("mean power %v exceeds budget %v", res.MeanPower, budget)
	}
	if res.TotalEnergy <= 0 || res.TotalFlops <= 0 || res.Elapsed <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
	if len(res.GrantHistory) != 3 {
		t.Errorf("grant history jobs = %d", len(res.GrantHistory))
	}
}

func TestOnlineCoordinationBeatsStaticSplit(t *testing.T) {
	// The protocol's value shows when one job frees more power than its
	// own critical hosts can absorb while another job is power-bound:
	// the share-locked variant strands the excess inside the waiting-
	// heavy job (its two critical hosts saturate at TDP), while the
	// protocol moves it to the bound job.
	specs := []struct {
		cfg   kernel.Config
		nodes int
	}{
		{kernel.Config{Intensity: 4, Vector: kernel.YMM, WaitingPct: 75, Imbalance: 3}, 8},
		{kernel.Config{Intensity: 32, Vector: kernel.YMM, Imbalance: 1}, 8},
	}
	budget := 16 * 180 * units.Power(1)
	run := func(share bool) Result {
		jobs := testJobs(t, specs)
		c, err := New(budget, jobs, share)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(context.Background(), 60)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(false)
	online := run(true)
	if online.Elapsed >= static.Elapsed {
		t.Errorf("online coordination %v not faster than static split %v", online.Elapsed, static.Elapsed)
	}
	// The steady state (transients excluded) should show a clear margin.
	tail := func(r Result) float64 {
		sum := 0.0
		for _, v := range r.IterTimes[len(r.IterTimes)-10:] {
			sum += v
		}
		return sum
	}
	if tail(online) >= tail(static)*0.995 {
		t.Errorf("steady-state online %v not clearly faster than static %v", tail(online), tail(static))
	}
}

func TestOnlineConvergesTowardPrecharacterizedBehavior(t *testing.T) {
	// After convergence the coordinator's steady-state iteration time
	// should be close to (or better than) the governor-uniform baseline
	// would predict; here we sanity-check steady state: the last ten
	// iteration times vary by < 2%.
	jobs := testJobs(t, wastefulSpecs())
	budget := 24 * 195 * units.Power(1)
	c, err := New(budget, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), 60)
	if err != nil {
		t.Fatal(err)
	}
	tail := res.IterTimes[len(res.IterTimes)-10:]
	mn, mx := tail[0], tail[0]
	for _, v := range tail {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if (mx-mn)/mn > 0.02 {
		t.Errorf("steady state not reached: spread %v", (mx-mn)/mn)
	}
}

func TestGrantHistoryEvolves(t *testing.T) {
	jobs := testJobs(t, wastefulSpecs())
	budget := 24 * 185 * units.Power(1)
	c, err := New(budget, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), 30)
	if err != nil {
		t.Fatal(err)
	}
	// The power-bound compute job's grant should grow past its initial
	// uniform share as waiting jobs release power.
	uniformShare := float64(budget) * 8 / 24
	boundGrants := res.GrantHistory["ymm-i32"]
	if len(boundGrants) == 0 {
		t.Fatal("no grants recorded for the bound job")
	}
	final := boundGrants[len(boundGrants)-1].Watts()
	if final <= uniformShare {
		t.Errorf("bound job's final grant %v W not above uniform share %v W", final, uniformShare)
	}
}

func TestBalancerRenormalizeOnBudgetChange(t *testing.T) {
	b := geopm.NewPowerBalancer()
	b.Initialize(2*200*units.Watt, []geopm.HostSample{
		{MinLimit: 136, MaxLimit: 240},
		{MinLimit: 136, MaxLimit: 240},
	})
	s := geopm.Sample{Hosts: []geopm.HostSample{
		{WorkTime: 1e9, Power: 195, Limit: 200, MinLimit: 136, MaxLimit: 240},
		{WorkTime: 1e9, Power: 195, Limit: 200, MinLimit: 136, MaxLimit: 240},
	}}
	// Budget raised: limits should scale up toward the new budget.
	limits := b.Adjust(2*220*units.Watt, s)
	if limits == nil {
		t.Fatal("no renormalization on budget change")
	}
	for _, l := range limits {
		if math.Abs(l.Watts()-220) > 1 {
			t.Errorf("renormalized limit = %v, want 220", l)
		}
	}
}

func TestRunValidation(t *testing.T) {
	jobs := testJobs(t, wastefulSpecs()[:1])
	c, err := New(8*190*units.Power(1), jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

// TestRunOnSharedEngineMatchesRun pins the Run/RunOn contract: running the
// protocol on a caller-supplied scheduler produces the same result as the
// private one Run creates, the iteration events land on the virtual
// timeline (the clock ends at the node-weighted elapsed time), and exactly
// one event is dispatched per iteration.
func TestRunOnSharedEngineMatchesRun(t *testing.T) {
	const iters = 40
	run := func() coordResult {
		jobs := testJobs(t, wastefulSpecs())
		c, err := New(24*190*units.Power(1), jobs, true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(context.Background(), iters)
		if err != nil {
			t.Fatal(err)
		}
		return coordResult{res: res}
	}
	runOn := func() coordResult {
		jobs := testJobs(t, wastefulSpecs())
		c, err := New(24*190*units.Power(1), jobs, true)
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New[int]()
		res, err := c.RunOn(context.Background(), eng, iters)
		if err != nil {
			t.Fatal(err)
		}
		return coordResult{res: res, eng: eng}
	}
	private, shared := run(), runOn()
	if !reflect.DeepEqual(private.res, shared.res) {
		t.Errorf("RunOn result differs from Run:\n  Run:   %+v\n  RunOn: %+v", private.res, shared.res)
	}
	if got := shared.eng.Dispatched(); got != iters {
		t.Errorf("dispatched %d events, want one per iteration (%d)", got, iters)
	}
	if shared.eng.Now() <= 0 {
		t.Error("engine clock did not advance")
	}
	// The last iteration event fires at the cumulative elapsed time of the
	// iterations before it.
	want := time.Duration((1 - 1/float64(iters)) * float64(shared.res.Elapsed))
	if diff := shared.eng.Now() - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("clock ended at %v, want ~%v", shared.eng.Now(), want)
	}
}

type coordResult struct {
	res Result
	eng *engine.Scheduler[int]
}

func TestRunOnNilEngineRejected(t *testing.T) {
	jobs := testJobs(t, wastefulSpecs())
	c, err := New(24*190*units.Power(1), jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunOn(context.Background(), nil, 10); err == nil {
		t.Error("nil engine accepted")
	}
}

// TestRunStartsFromHostLimits pins that each run samples the limits the
// hosts hold, not the ones the runtimes last programmed: a caller may write
// limits between runs (cmd/obsdump's watchdog clamps between one-iteration
// runs), and a runtime sampling its own stale limits would undo the clamp.
func TestRunStartsFromHostLimits(t *testing.T) {
	jobs := testJobs(t, wastefulSpecs())
	c, err := New(24*190*units.Power(1), jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	host := jobs[0].Hosts[0].Node
	clamped, err := host.SetPowerLimit(host.MinLimit())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if got := c.Runtimes[0].LastSample().Hosts[0].Limit; got != clamped {
		t.Errorf("second run sampled limit %v, want the clamped %v", got, clamped)
	}
}
