package policy

import (
	"math"
	"testing"
	"testing/quick"

	"powerstack/internal/bsp"
	"powerstack/internal/charz"
	"powerstack/internal/kernel"
	"powerstack/internal/units"
)

const (
	hostMin = 136 * units.Watt
	hostMax = 240 * units.Watt
)

// mkJob builds a synthetic JobInfo: nCrit critical hosts followed by nWait
// waiting hosts, with the given characterization signals.
func mkJob(id string, nCrit, nWait int, needCrit, needWait, obsCrit, obsWait, maxMon units.Power) JobInfo {
	j := JobInfo{ID: id}
	for i := 0; i < nCrit; i++ {
		j.Hosts = append(j.Hosts, HostInfo{Role: bsp.Critical, Min: hostMin, Max: hostMax})
	}
	for i := 0; i < nWait; i++ {
		j.Hosts = append(j.Hosts, HostInfo{Role: bsp.Waiting, Min: hostMin, Max: hostMax})
	}
	j.Char = charz.Entry{
		Config:              kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1},
		Hosts:               nCrit + nWait,
		MonitorMaxHostPower: maxMon,
		MonitorCriticalPwr:  obsCrit,
		MonitorWaitingPwr:   obsWait,
		NeededCritical:      needCrit,
		NeededWaiting:       needWait,
	}
	return j
}

// balancedJob: all hosts critical, needs and uses the same power.
func balancedJob(id string, hosts int, power units.Power) JobInfo {
	return mkJob(id, hosts, 0, power, 0, power, 0, power)
}

// wastefulJob: imbalanced job whose waiting hosts draw a lot uncapped but
// need little.
func wastefulJob(id string, nCrit, nWait int) JobInfo {
	return mkJob(id, nCrit, nWait, 230, 150, 232, 220, 235)
}

func TestAllPolicies(t *testing.T) {
	ps := All()
	if len(ps) != 5 {
		t.Fatalf("policy count = %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name()] = true
	}
	for _, want := range []string{"StaticCaps", "Precharacterized", "MinimizeWaste", "JobAdaptive", "MixedAdaptive"} {
		if !names[want] {
			t.Errorf("missing policy %s", want)
		}
	}
	if len(Dynamic()) != 3 {
		t.Errorf("dynamic count = %d", len(Dynamic()))
	}
}

// TestByName pins the resolver every CLI flag and the service's policy swap
// share: case and the "-" and "_" separators are ignored, nothing else is.
func TestByName(t *testing.T) {
	cases := []struct {
		name, want string // want "" = unknown
	}{
		{"MixedAdaptive", "MixedAdaptive"},
		{"mixedadaptive", "MixedAdaptive"},
		{"MIXEDADAPTIVE", "MixedAdaptive"},
		{"mixed-adaptive", "MixedAdaptive"},
		{"mixed_adaptive", "MixedAdaptive"},
		{"static-caps", "StaticCaps"},
		{"Job_Adaptive", "JobAdaptive"},
		{"minimize-waste", "MinimizeWaste"},
		{"precharacterized", "Precharacterized"},
		{"mixed adaptive", ""},
		{"round-robin", ""},
		{"", ""},
	}
	for _, c := range cases {
		p, err := ByName(c.name)
		switch {
		case c.want == "" && err == nil:
			t.Errorf("ByName(%q) = %s, want an error", c.name, p.Name())
		case c.want != "" && err != nil:
			t.Errorf("ByName(%q): %v", c.name, err)
		case c.want != "" && p.Name() != c.want:
			t.Errorf("ByName(%q) = %s, want %s", c.name, p.Name(), c.want)
		}
	}
}

func TestValidation(t *testing.T) {
	sys := System{Budget: 1000}
	for _, p := range All() {
		if _, err := p.Allocate(sys, nil); err == nil {
			t.Errorf("%s accepted no jobs", p.Name())
		}
		if _, err := p.Allocate(sys, []JobInfo{{ID: "x"}}); err == nil {
			t.Errorf("%s accepted a job with no hosts", p.Name())
		}
	}
}

func TestStaticCapsUniform(t *testing.T) {
	jobs := []JobInfo{balancedJob("a", 3, 230), wastefulJob("b", 1, 2)}
	alloc, err := StaticCaps{}.Allocate(System{Budget: 6 * 180 * units.Watt}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		for i, c := range alloc[id] {
			if c != 180*units.Watt {
				t.Errorf("%s[%d] = %v, want 180 W", id, i, c)
			}
		}
	}
}

func TestStaticCapsClamps(t *testing.T) {
	jobs := []JobInfo{balancedJob("a", 2, 230)}
	alloc, err := StaticCaps{}.Allocate(System{Budget: 100 * units.Watt}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range alloc["a"] {
		if c != hostMin {
			t.Errorf("cap %v, want floor %v", c, hostMin)
		}
	}
}

func TestPrecharacterizedIgnoresBudget(t *testing.T) {
	jobs := []JobInfo{mkJob("a", 2, 0, 230, 0, 230, 0, 235)}
	tiny, err := Precharacterized{}.Allocate(System{Budget: 1}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	huge, err := Precharacterized{}.Allocate(System{Budget: 1e9}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tiny["a"] {
		if tiny["a"][i] != huge["a"][i] {
			t.Error("Precharacterized must not depend on the budget")
		}
		if tiny["a"][i] != 235*units.Watt {
			t.Errorf("cap = %v, want the max monitor power 235", tiny["a"][i])
		}
	}
	// The Figure 7 overrun: total allocation exceeds a tight budget.
	if tiny.Total() <= 1 {
		t.Error("expected budget overrun")
	}
}

func TestMinimizeWasteSteersToHungryJobs(t *testing.T) {
	// Job "low" observes 150 W/host; job "high" observes 235 W/host.
	jobs := []JobInfo{
		mkJob("low", 4, 0, 150, 0, 150, 0, 152),
		mkJob("high", 4, 0, 235, 0, 235, 0, 238),
	}
	budget := 8 * 190 * units.Watt // uniform share 190 W
	alloc, err := MinimizeWaste{}.Allocate(System{Budget: budget}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range alloc["low"] {
		if math.Abs(c.Watts()-150) > 1 {
			t.Errorf("low job cap = %v, want its observed 150", c)
		}
	}
	for _, c := range alloc["high"] {
		if c.Watts() < 225 {
			t.Errorf("high job cap = %v, want boosted toward 235", c)
		}
	}
	if got := alloc.Total(); got > budget+units.Power(1e-6) {
		t.Errorf("allocation %v exceeds budget %v", got, budget)
	}
}

func TestJobAdaptiveCannotCrossJobs(t *testing.T) {
	// "low" needs little; "high" is power-bound. JobAdaptive must leave
	// low's surplus inside the low job.
	jobs := []JobInfo{
		mkJob("low", 4, 0, 150, 0, 150, 0, 152),
		mkJob("high", 4, 0, 235, 0, 235, 0, 238),
	}
	budget := 8 * 190 * units.Watt
	alloc, err := JobAdaptive{}.Allocate(System{Budget: budget}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var lowTotal, highTotal units.Power
	for _, c := range alloc["low"] {
		lowTotal += c
	}
	for _, c := range alloc["high"] {
		highTotal += c
	}
	jobShare := 4 * 190 * units.Power(1)
	if highTotal > jobShare+units.Power(1e-6) {
		t.Errorf("high job got %v, exceeding its share %v: power crossed jobs", highTotal, jobShare)
	}
	// The high job is squeezed: per-host cap is its share, below need.
	for _, c := range alloc["high"] {
		if math.Abs(c.Watts()-190) > 1 {
			t.Errorf("high host = %v, want ~190 (scaled down)", c)
		}
	}
}

func TestJobAdaptiveBalancesWithinJob(t *testing.T) {
	// One imbalanced job: critical hosts need 230, waiting hosts 150.
	jobs := []JobInfo{mkJob("j", 2, 2, 230, 150, 232, 220, 235)}
	budget := 4 * 190 * units.Watt // job budget 760 = exactly 230+230+150+150
	alloc, err := JobAdaptive{}.Allocate(System{Budget: budget}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	caps := alloc["j"]
	if math.Abs(caps[0].Watts()-230) > 1 || math.Abs(caps[1].Watts()-230) > 1 {
		t.Errorf("critical caps = %v, %v, want 230", caps[0], caps[1])
	}
	if math.Abs(caps[2].Watts()-150) > 1 || math.Abs(caps[3].Watts()-150) > 1 {
		t.Errorf("waiting caps = %v, %v, want 150", caps[2], caps[3])
	}
}

func TestJobAdaptiveTightBudgetShiftsSlackOnly(t *testing.T) {
	jobs := []JobInfo{mkJob("j", 2, 2, 230, 150, 232, 220, 235)}
	budget := 4 * 160 * units.Watt // job budget 640 < 760 needed
	alloc, err := JobAdaptive{}.Allocate(System{Budget: budget}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	caps := alloc["j"]
	// Uniform share 160; waiting hosts reclaim down to their 150 W need,
	// the 20 W freed tops up the power-bound critical hosts.
	if math.Abs(caps[2].Watts()-150) > 1 || math.Abs(caps[3].Watts()-150) > 1 {
		t.Errorf("waiting caps = %v, %v, want 150", caps[2], caps[3])
	}
	if math.Abs(caps[0].Watts()-170) > 1 || math.Abs(caps[1].Watts()-170) > 1 {
		t.Errorf("critical caps = %v, %v, want 170", caps[0], caps[1])
	}
	if got := alloc.Total(); got > budget+units.Power(0.01) {
		t.Errorf("allocation %v exceeds budget %v", got, budget)
	}
}

func TestMixedAdaptiveSharesAcrossJobs(t *testing.T) {
	// Same scenario as the JobAdaptive cross-job test: MixedAdaptive CAN
	// move low's surplus into high.
	jobs := []JobInfo{
		mkJob("low", 4, 0, 150, 0, 150, 0, 152),
		mkJob("high", 4, 0, 235, 0, 235, 0, 238),
	}
	budget := 8 * 190 * units.Watt
	alloc, err := MixedAdaptive{}.Allocate(System{Budget: budget}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range alloc["high"] {
		if c.Watts() < 225 {
			t.Errorf("high host = %v, want boosted toward 235", c)
		}
	}
	for _, c := range alloc["low"] {
		if math.Abs(c.Watts()-150) > 1 {
			t.Errorf("low host = %v, want 150", c)
		}
	}
	if got := alloc.Total(); got > budget+units.Power(1e-6) {
		t.Errorf("allocation %v exceeds budget %v", got, budget)
	}
}

func TestMixedAdaptiveSurplusStaysReserved(t *testing.T) {
	// Everyone satisfied, surplus remains: the programmed caps stop at
	// each host's needed power — the Figure 7 marker-(a) behavior where
	// application awareness leaves budget unused at relaxed limits.
	jobs := []JobInfo{
		mkJob("a", 2, 0, 190, 0, 190, 0, 195),
		mkJob("b", 2, 0, 150, 0, 150, 0, 152),
	}
	budget := 4 * 195 * units.Watt // 780 total, needs are 680
	alloc, err := MixedAdaptive{}.Allocate(System{Budget: budget}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range alloc["a"] {
		if math.Abs(c.Watts()-190) > 1 {
			t.Errorf("a cap = %v, want pinned at its 190 W need", c)
		}
	}
	for _, c := range alloc["b"] {
		if math.Abs(c.Watts()-150) > 1 {
			t.Errorf("b cap = %v, want pinned at its 150 W need", c)
		}
	}
	if got := alloc.Total(); math.Abs(got.Watts()-680) > 1 {
		t.Errorf("programmed total = %v, want the 680 W of aggregate need", got)
	}
}

func TestJobAdaptiveSurplusStaysReserved(t *testing.T) {
	jobs := []JobInfo{mkJob("j", 2, 2, 200, 150, 202, 200, 205)}
	budget := 4 * 230 * units.Watt // well above the 700 W of need
	alloc, err := JobAdaptive{}.Allocate(System{Budget: budget}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	caps := alloc["j"]
	if math.Abs(caps[0].Watts()-200) > 1 || math.Abs(caps[2].Watts()-150) > 1 {
		t.Errorf("caps = %v, want pinned at needs (200/150)", caps)
	}
}

func TestMixedAdaptiveEqualsJobAdaptiveAtMinBudget(t *testing.T) {
	// Section VI-B: at the min budget there is no power to share, so both
	// policies stay in the uniform initial state... but JobAdaptive
	// balances within jobs. The observable equality is on *totals per
	// job*.
	jobs := []JobInfo{
		mkJob("a", 2, 2, 230, 150, 232, 220, 235),
		mkJob("b", 4, 0, 200, 0, 200, 0, 205),
	}
	budget := 8 * hostMin // nothing to spare
	ja, err := JobAdaptive{}.Allocate(System{Budget: budget}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := MixedAdaptive{}.Allocate(System{Budget: budget}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		var tja, tma units.Power
		for _, c := range ja[id] {
			tja += c
		}
		for _, c := range ma[id] {
			tma += c
		}
		// Every host is clamped at the floor under both policies.
		if math.Abs(tja.Watts()-tma.Watts()) > 1 {
			t.Errorf("job %s totals: JobAdaptive %v vs MixedAdaptive %v", id, tja, tma)
		}
	}
}

func TestAllocationTotal(t *testing.T) {
	a := Allocation{"x": {100, 50}, "y": {25}}
	if got := a.Total(); got != 175 {
		t.Errorf("Total = %v", got)
	}
}

// Property: for every budget-respecting policy, the allocation never
// exceeds max(budget, total floor), and every cap is within [min, max].
func TestAllocationInvariants(t *testing.T) {
	policies := []Policy{StaticCaps{}, MinimizeWaste{}, JobAdaptive{}, MixedAdaptive{}}
	f := func(budgetRaw uint16, needCritRaw, needWaitRaw, obsRaw uint8, nCrit, nWait uint8) bool {
		nc := int(nCrit)%5 + 1
		nw := int(nWait) % 5
		needCrit := units.Power(140 + float64(needCritRaw%100))
		needWait := units.Power(136 + float64(needWaitRaw%60))
		obs := units.Power(180 + float64(obsRaw%60))
		jobs := []JobInfo{
			mkJob("a", nc, nw, needCrit, needWait, obs, obs, obs+3),
			mkJob("b", nw+1, nc-1, needWait+20, needWait, obs-10, obs-20, obs),
		}
		hosts := 0
		for _, j := range jobs {
			hosts += len(j.Hosts)
		}
		budget := units.Power(float64(budgetRaw%60000)) + units.Power(hosts)*hostMin
		floor := units.Power(hosts) * hostMin
		for _, p := range policies {
			alloc, err := p.Allocate(System{Budget: budget}, jobs)
			if err != nil {
				return false
			}
			limit := budget
			if floor > limit {
				limit = floor
			}
			if alloc.Total() > limit+units.Power(0.01) {
				return false
			}
			for _, caps := range alloc {
				for _, c := range caps {
					if c < hostMin-units.Power(1e-9) || c > hostMax+units.Power(1e-9) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: MixedAdaptive dominates StaticCaps in delivered power to needy
// hosts — no host that still needs power is left below its StaticCaps
// level while budget sits unused.
func TestMixedAdaptiveNoWastedBudgetWhenNeedy(t *testing.T) {
	jobs := []JobInfo{
		mkJob("low", 3, 0, 150, 0, 150, 0, 152),
		mkJob("high", 3, 0, 238, 0, 238, 0, 239),
	}
	budget := 6 * 190 * units.Power(1)
	alloc, err := MixedAdaptive{}.Allocate(System{Budget: budget}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	spent := alloc.Total()
	var needUnmet bool
	for _, c := range alloc["high"] {
		if c < 238-1 {
			needUnmet = true
		}
	}
	if needUnmet && spent < budget-units.Power(1) {
		t.Errorf("budget unused (%v of %v) while hosts remain needy", spent, budget)
	}
}
