// paper_test.go asserts the paper's qualitative claims end-to-end at
// reduced scale — the executable form of the EXPERIMENTS.md checklist.
// Each test names the paper artifact it covers.
package powerstack

import (
	"context"
	"math"
	"testing"

	"powerstack/internal/charz"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/kernel"
	"powerstack/internal/policy"
	"powerstack/internal/sim"
	"powerstack/internal/workload"
)

// paperEnv builds a medium-cluster pool and characterizes the given mixes.
func paperEnv(t *testing.T, mixes []workload.Mix, poolSize int) (*sim.Runner, workload.Budgets) {
	t.Helper()
	c, err := cluster.New((poolSize+6)*5/2, cpumodel.Quartz(), cpumodel.QuartzVariation(), 23)
	if err != nil {
		t.Fatal(err)
	}
	medium, _, err := c.MediumNodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(medium) < poolSize+6 {
		t.Fatalf("medium cluster too small: %d", len(medium))
	}
	scratch := medium[:6]
	pool := medium[6 : 6+poolSize]

	db := charz.NewDB()
	seen := map[string]bool{}
	for _, m := range mixes {
		for _, cfg := range m.Configs() {
			if seen[cfg.Name()] {
				continue
			}
			seen[cfg.Name()] = true
			e, err := charz.Characterize(cfg, scratch, charz.Options{
				MonitorIters: 6, BalancerIters: 40, Seed: 2, NoiseSigma: 0,
			})
			if err != nil {
				t.Fatal(err)
			}
			db.Put(e)
		}
	}
	r := sim.NewRunner(pool, db)
	r.Iters = 25
	r.NoiseSigma = 0
	budgets, err := workload.SelectBudgets(mixes[0], db)
	if err != nil {
		t.Fatal(err)
	}
	return r, budgets
}

// Figure 4 claim: uncapped power is insensitive to imbalance and peaks at
// mid intensity within a ~10% band.
func TestPaperFigure4Claims(t *testing.T) {
	spec := cpumodel.Quartz()
	s := cpumodel.NewSocket(&spec, 1)
	var powers []float64
	for _, in := range kernel.HeatmapIntensities() {
		cfg := kernel.Config{Intensity: in, Vector: kernel.YMM, Imbalance: 1}
		ph := cpumodel.Phase{Work: cfg.CriticalWork(), Vector: cfg.Vector}
		powers = append(powers, 2*s.PowerAt(ph, s.FrequencyForCap(ph, spec.TDP)).Watts())
	}
	mn, mx := powers[0], powers[0]
	for _, p := range powers {
		mn = math.Min(mn, p)
		mx = math.Max(mx, p)
	}
	if (mx-mn)/mx > 0.12 {
		t.Errorf("uncapped power band %v-%v wider than the paper's ~10%%", mn, mx)
	}
	spin := 2 * s.SpinPowerAt(s.Spec.MaxTurbo).Watts()
	if spin < 0.85*mx {
		t.Errorf("spin power %v too low for imbalance insensitivity (peak %v)", spin, mx)
	}
}

// Takeaways 2+3 on the WastefulPower mix: application awareness delivers
// the energy savings; MixedAdaptive >= JobAdaptive > MinimizeWaste ~ 0 at
// the ideal budget, and energy savings grow from min to max.
func TestPaperTakeawaysOnWastefulPower(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end grid in -short mode")
	}
	mix := workload.WastefulPower().Scaled(36)
	r, _ := paperEnv(t, []workload.Mix{mix}, mix.TotalNodes())
	mr, err := r.RunMix(context.Background(), mix)
	if err != nil {
		t.Fatal(err)
	}
	ideal := mr.Savings["ideal"]
	mixed := ideal[policy.MixedAdaptive{}.Name()]
	job := ideal[policy.JobAdaptive{}.Name()]
	waste := ideal[policy.MinimizeWaste{}.Name()]
	if mixed.Time < job.Time-0.001 {
		t.Errorf("MixedAdaptive time %v below JobAdaptive %v at ideal", mixed.Time, job.Time)
	}
	if job.Time < 0.02 {
		t.Errorf("JobAdaptive time savings %v too small at ideal", job.Time)
	}
	if math.Abs(waste.Time) > 0.01 {
		t.Errorf("MinimizeWaste time savings %v should be ~0 on this mix", waste.Time)
	}
	eMin := mr.Savings["min"][policy.MixedAdaptive{}.Name()].Energy
	eIdeal := mixed.Energy
	eMax := mr.Savings["max"][policy.MixedAdaptive{}.Name()].Energy
	if !(eMin < eIdeal && eIdeal <= eMax+0.02) {
		t.Errorf("energy savings not growing with budget: %v, %v, %v", eMin, eIdeal, eMax)
	}
	if eMax < 0.05 {
		t.Errorf("max-budget energy savings %v below the paper's scale", eMax)
	}
}

// Figure 7 claims: Precharacterized overruns tight budgets; the adaptive
// policies under-use the max budget (marker a).
func TestPaperFigure7Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end grid in -short mode")
	}
	mix := workload.WastefulPower().Scaled(27)
	r, budgets := paperEnv(t, []workload.Mix{mix}, mix.TotalNodes())

	pre, err := r.RunCell(context.Background(), mix, policy.Precharacterized{}, "min", budgets.Min)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Utilization <= 1.0 {
		t.Errorf("Precharacterized min utilization %v, want > 100%%", pre.Utilization)
	}
	static, err := r.RunCell(context.Background(), mix, policy.StaticCaps{}, "max", budgets.Max)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := r.RunCell(context.Background(), mix, policy.MixedAdaptive{}, "max", budgets.Max)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Utilization >= static.Utilization-0.02 {
		t.Errorf("marker (a): MixedAdaptive max utilization %v not clearly below StaticCaps %v",
			mixed.Utilization, static.Utilization)
	}
}

// Takeaway 4 on NeedUsedPower: no energy-saving opportunity when all used
// power is needed; MinimizeWaste finds its one time-saving niche (marker c).
func TestPaperNeedUsedPowerClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end grid in -short mode")
	}
	mix := workload.NeedUsedPower().Scaled(27)
	r, _ := paperEnv(t, []workload.Mix{mix}, mix.TotalNodes())
	mr, err := r.RunMix(context.Background(), mix)
	if err != nil {
		t.Fatal(err)
	}
	for _, lvl := range []string{"min", "ideal", "max"} {
		for p, s := range mr.Savings[lvl] {
			if s.Energy > 0.02 {
				t.Errorf("%s/%s: energy savings %v on a mix with none to give", lvl, p, s.Energy)
			}
			if s.Time < -0.02 {
				t.Errorf("%s/%s: time regression %v", lvl, p, s.Time)
			}
		}
	}
	// Marker (c): MinimizeWaste's time savings at ideal are >= its other
	// cells and non-negative.
	mwIdeal := mr.Savings["ideal"][policy.MinimizeWaste{}.Name()].Time
	if mwIdeal < 0 {
		t.Errorf("MinimizeWaste ideal time savings %v negative", mwIdeal)
	}
}

// Figure 6 claim: the variation survey separates the population into three
// ordered clusters with the medium one largest.
func TestPaperFigure6Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("population survey in -short mode")
	}
	c, err := cluster.New(600, cpumodel.Quartz(), cpumodel.QuartzVariation(), 2)
	if err != nil {
		t.Fatal(err)
	}
	_, cl, err := c.MediumNodes()
	if err != nil {
		t.Fatal(err)
	}
	if !(cl.Sizes[1] > cl.Sizes[0] && cl.Sizes[1] > cl.Sizes[2]) {
		t.Errorf("medium cluster not the largest: %v", cl.Sizes)
	}
	ratio := float64(cl.Sizes[1]) / 600
	if ratio < 0.35 || ratio > 0.6 {
		t.Errorf("medium fraction %v far from the paper's 918/2000", ratio)
	}
}

// Headline magnitudes at reduced scale: time savings in the mid-single
// digits, energy near ten percent — the paper's 7%/11% scale.
func TestPaperHeadlineScale(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end grid in -short mode")
	}
	mix := workload.HighImbalance().Scaled(32)
	r, _ := paperEnv(t, []workload.Mix{mix}, mix.TotalNodes())
	mr, err := r.RunMix(context.Background(), mix)
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	bestE := 0.0
	for _, sv := range mr.Savings {
		for _, s := range sv {
			best = math.Max(best, s.Time)
			bestE = math.Max(bestE, s.Energy)
		}
	}
	if best < 0.03 || best > 0.20 {
		t.Errorf("peak time savings %v outside the paper's scale", best)
	}
	if bestE < 0.05 || bestE > 0.25 {
		t.Errorf("peak energy savings %v outside the paper's scale", bestE)
	}
}
