package cpumodel

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"powerstack/internal/kernel"
	"powerstack/internal/units"
)

func tablePhases() []Phase {
	cfgs := []kernel.Config{
		{Intensity: 0.25, Vector: kernel.XMM, Imbalance: 1},
		{Intensity: 8, Vector: kernel.YMM, Imbalance: 1},
		{Intensity: 32, Vector: kernel.YMM, Imbalance: 1},
		{Intensity: 1, Vector: kernel.XMM, WaitingPct: 50, Imbalance: 2},
		{Intensity: 16, Vector: kernel.YMM, WaitingPct: 75, Imbalance: 3},
	}
	var phases []Phase
	for _, c := range cfgs {
		phases = append(phases,
			Phase{Work: c.TotalWorkPerHost(18, true), Vector: c.Vector},
			Phase{Work: c.TotalWorkPerHost(18, false), Vector: c.Vector},
		)
	}
	return phases
}

func tableSockets() []Socket {
	spec := Quartz()
	etas := []float64{0.94, 1.0, 1.06}
	out := make([]Socket, len(etas))
	for i, eta := range etas {
		out[i] = NewSocket(spec, eta)
	}
	return out
}

// TestOperateMatchesSeparate pins the fused hot-path Operate against the
// three separate model calls, with exact equality: any drift here changes
// simulation results everywhere.
func TestOperateMatchesSeparate(t *testing.T) {
	for _, s := range tableSockets() {
		for _, ph := range tablePhases() {
			for f := s.Spec.MinFreq; f <= s.Spec.MaxTurbo; f += s.Spec.FreqStep / 4 {
				dur, pwr, util := s.Operate(ph, f)
				if want := s.TimeFor(ph, f); dur != want {
					t.Fatalf("eta=%v ph=%+v f=%v: dur %v != TimeFor %v", s.Eta, ph, f, dur, want)
				}
				if want := s.PowerAt(ph, f); pwr != want {
					t.Fatalf("eta=%v ph=%+v f=%v: power %v != PowerAt %v", s.Eta, ph, f, pwr, want)
				}
				if want := s.Utilization(ph, f); util != want {
					t.Fatalf("eta=%v ph=%+v f=%v: util %+v != Utilization %+v", s.Eta, ph, f, util, want)
				}
			}
		}
	}
}

// TestOperateDegenerate pins the zero-roofline early-out path.
func TestOperateDegenerate(t *testing.T) {
	spec := Quartz()
	s := NewSocket(spec, 1.0)
	ph := Phase{Work: kernel.Work{Flops: 1e9}} // zero traffic, pure compute
	dur, pwr, util := s.Operate(ph, s.Spec.BaseFreq)
	if dur != s.TimeFor(ph, s.Spec.BaseFreq) || pwr != s.PowerAt(ph, s.Spec.BaseFreq) || util != s.Utilization(ph, s.Spec.BaseFreq) {
		t.Fatal("pure-compute phase diverges from separate calls")
	}
}

// TestCapTableMatchesBisection pins the table-driven inversion against the
// full-range bisection across a dense cap sweep: both must land within the
// model's own cap-respecting tolerance, and the table result must respect
// the cap whenever the bisection does.
func TestCapTableMatchesBisection(t *testing.T) {
	for _, s := range tableSockets() {
		for _, ph := range tablePhases() {
			tbl := CapTableFor(&s.Spec, ph)
			pMin := s.PowerAt(ph, s.Spec.MinFreq)
			pMax := s.PowerAt(ph, s.Spec.MaxTurbo)
			for i := 0; i <= 200; i++ {
				cap := pMin + (pMax-pMin)*units.Power(float64(i)/200)*1.1 - (pMax-pMin)*0.05
				got := tbl.FrequencyForCap(s.Eta, cap)
				want := s.FrequencyForCap(ph, cap)
				// Both bisections terminate well below any physically
				// observable resolution; agreement within 1 kHz leaves
				// orders of magnitude of margin.
				if diff := got - want; diff > 1e3 || diff < -1e3 {
					t.Fatalf("eta=%v ph=%+v cap=%v: table %v vs bisection %v", s.Eta, ph, cap, got, want)
				}
				if got > s.Spec.MinFreq && s.PowerAt(ph, got) > cap {
					t.Fatalf("eta=%v ph=%+v cap=%v: table frequency %v overshoots cap", s.Eta, ph, cap, got)
				}
			}
		}
	}
}

// TestSpinCapTableMatchesBisection does the same for the spin-power curve.
func TestSpinCapTableMatchesBisection(t *testing.T) {
	for _, s := range tableSockets() {
		tbl := SpinCapTableFor(&s.Spec)
		pMin := s.SpinPowerAt(s.Spec.MinFreq)
		pMax := s.SpinPowerAt(s.Spec.MaxTurbo)
		for i := 0; i <= 200; i++ {
			cap := pMin + (pMax-pMin)*units.Power(float64(i)/200)*1.1 - (pMax-pMin)*0.05
			got := tbl.FrequencyForCap(s.Eta, cap)
			want := s.SpinFrequencyForCap(cap)
			if diff := got - want; diff > 1e3 || diff < -1e3 {
				t.Fatalf("eta=%v cap=%v: table %v vs bisection %v", s.Eta, cap, got, want)
			}
		}
	}
}

// TestCapTableBoundaries pins the exact boundary semantics shared with
// Socket.FrequencyForCap.
func TestCapTableBoundaries(t *testing.T) {
	s := NewSocket(Quartz(), 1.0)
	ph := tablePhases()[2]
	tbl := CapTableFor(&s.Spec, ph)
	if got := tbl.FrequencyForCap(s.Eta, s.PowerAt(ph, s.Spec.MaxTurbo)+1); got != s.Spec.MaxTurbo {
		t.Errorf("generous cap: got %v, want MaxTurbo", got)
	}
	if got := tbl.FrequencyForCap(s.Eta, s.PowerAt(ph, s.Spec.MinFreq)-1); got != s.Spec.MinFreq {
		t.Errorf("impossible cap: got %v, want MinFreq", got)
	}
}

// socketTableFrequency is the per-socket cap inversion the shared table
// replaced: a grid of full model powers at this socket's eta, a binary
// search over them, and the same in-bracket bisection.
func socketTableFrequency(s Socket, ph Phase, spin bool, cap units.Power) units.Frequency {
	powerAt := func(f units.Frequency) units.Power {
		if spin {
			return s.SpinPowerAt(f)
		}
		return s.PowerAt(ph, f)
	}
	lo, hi := s.Spec.MinFreq, s.Spec.MaxTurbo
	step := s.Spec.FreqStep / capTableSubSteps
	var freqs []units.Frequency
	for f := lo; f < hi; f += step {
		freqs = append(freqs, f)
	}
	freqs = append(freqs, hi)
	powers := make([]units.Power, len(freqs))
	for i, f := range freqs {
		powers[i] = powerAt(f)
	}
	n := len(freqs)
	if powers[n-1] <= cap {
		return freqs[n-1]
	}
	if powers[0] > cap {
		return freqs[0]
	}
	i := sort.Search(n, func(k int) bool { return powers[k] > cap }) - 1
	lo, hi = freqs[i], freqs[i+1]
	if powerAt(lo) > cap {
		lo, hi = freqs[0], freqs[n-1]
	}
	for k := 0; k < capTableBisectIters; k++ {
		mid := (lo + hi) / 2
		if powerAt(mid) <= cap {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TestSharedTableBitIdentical pins the one-table-per-spec inversion against
// per-socket tables over random eta, phase, cap and spin: the frequencies
// must be exactly equal, since any difference moves every simulated
// operating point.
func TestSharedTableBitIdentical(t *testing.T) {
	spec := Quartz()
	phases := tablePhases()
	rng := rand.New(rand.NewPCG(13, 17))
	var floor, ceiling, inside int
	for trial := 0; trial < 20000; trial++ {
		s := NewSocket(spec, 0.85+0.3*rng.Float64())
		ph := phases[rng.IntN(len(phases))]
		spin := rng.IntN(4) == 0
		tbl := CapTableFor(&s.Spec, ph)
		if spin {
			tbl = SpinCapTableFor(&s.Spec)
		}
		// Caps span both clamps: below the MinFreq power and above MaxTurbo's.
		cap := units.Power(40 + 120*rng.Float64())
		got := tbl.FrequencyForCap(s.Eta, cap)
		if want := socketTableFrequency(s, ph, spin, cap); got != want {
			t.Fatalf("trial %d eta=%v spin=%v ph=%+v cap=%v: shared %v, per-socket %v", trial, s.Eta, spin, ph, cap, got, want)
		}
		switch got {
		case spec.MinFreq:
			floor++
		case spec.MaxTurbo:
			ceiling++
		default:
			inside++
		}
	}
	if floor == 0 || ceiling == 0 || inside == 0 {
		t.Errorf("cap sweep missed a branch: floor=%d ceiling=%d bisected=%d", floor, ceiling, inside)
	}
}

// referenceBisect is the plain table inversion the guided search must
// reproduce exactly: a binary search over grid powers, then a 24-step
// bisection that evaluates the power model at every midpoint.
func referenceBisect(t *CapTable, eta float64, cap units.Power) units.Frequency {
	n := len(t.freqs)
	if t.gridPower(eta, n-1) <= cap {
		return t.freqs[n-1]
	}
	if t.gridPower(eta, 0) > cap {
		return t.freqs[0]
	}
	// Largest grid point whose power fits the cap; its successor overshoots.
	i := sort.Search(n, func(k int) bool { return t.gridPower(eta, k) > cap }) - 1
	lo, hi := t.freqs[i], t.freqs[i+1]
	if t.gridPower(eta, i) > cap {
		// Monotonicity dust broke the bracket (never observed for the
		// calibrated model); fall back to the full range.
		lo, hi = t.freqs[0], t.freqs[n-1]
	}
	for k := 0; k < capTableBisectIters; k++ {
		mid := (lo + hi) / 2
		if t.powerAt(eta, mid) <= cap {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// fuzzPhase decodes a work mix over the Table II design axes — intensity,
// vector width, waiting share, imbalance, critical or waiting host — plus
// pure-compute and pure-memory variants of each.
func fuzzPhase(sel uint16) Phase {
	intensities := []float64{0, 0.25, 0.5, 1, 2, 4, 8, 16, 32}
	v := uint(sel)
	c := kernel.Config{
		Intensity:  intensities[v%9],
		Vector:     kernel.Vector(v / 9 % 3),
		WaitingPct: int(v / 27 % 4 * 25),
		Imbalance:  float64(v/108%3 + 1),
	}
	w := c.TotalWorkPerHost(18, v/324%2 == 0)
	switch v / 648 % 3 {
	case 1: // pure compute
		w.Flops += units.Flops(w.Traffic)
		w.Traffic = 0
	case 2: // pure memory
		w.Flops = 0
	}
	return Phase{Work: w, Vector: c.Vector}
}

// FuzzCapTableInversion pins the guided inversion against referenceBisect
// over random eta, work mixes and spin tables. Caps land on exact grid
// powers, one ulp either side of them (where the bracket search and the
// probes' margins are tightest), or anywhere across and past the table's
// power range.
func FuzzCapTableInversion(f *testing.F) {
	f.Add(uint16(32768), uint16(7), false, uint8(0), uint16(40), 0.0)
	f.Add(uint16(0), uint16(700), false, uint8(1), uint16(0), 0.0)
	f.Add(uint16(65535), uint16(1300), true, uint8(2), uint16(112), 0.0)
	f.Add(uint16(1234), uint16(333), false, uint8(3), uint16(0), 0.37)
	spec := Quartz()
	f.Fuzz(func(t *testing.T, etaSel, phaseSel uint16, spin bool, capMode uint8, gridSel uint16, frac float64) {
		eta := 0.85 + 0.3*float64(etaSel)/math.MaxUint16
		ph := fuzzPhase(phaseSel)
		tbl := CapTableFor(&spec, ph)
		if spin {
			tbl = SpinCapTableFor(&spec)
		}
		n := len(tbl.freqs)
		grid := tbl.gridPower(eta, int(gridSel)%n)
		var cap units.Power
		switch capMode % 4 {
		case 0:
			cap = grid
		case 1:
			cap = units.Power(math.Nextafter(float64(grid), math.Inf(1)))
		case 2:
			cap = units.Power(math.Nextafter(float64(grid), math.Inf(-1)))
		default:
			if math.IsNaN(frac) || math.IsInf(frac, 0) {
				frac = 0.5
			}
			frac -= math.Floor(frac)
			pMin, pMax := tbl.gridPower(eta, 0), tbl.gridPower(eta, n-1)
			cap = pMin + (pMax-pMin)*units.Power(1.1*frac-0.05)
		}
		got, want := tbl.FrequencyForCap(eta, cap), referenceBisect(tbl, eta, cap)
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("eta=%v spin=%v ph=%+v cap=%v: guided %v, reference %v", eta, spin, ph, cap, got, want)
		}
	})
}

// TestCapTableShared pins that every socket of one spec shares one table
// per phase, and that a different spec gets its own.
func TestCapTableShared(t *testing.T) {
	a, b := NewSocket(Quartz(), 0.9), NewSocket(Quartz(), 1.1)
	ph := tablePhases()[0]
	if CapTableFor(&a.Spec, ph) != CapTableFor(&b.Spec, ph) {
		t.Error("sockets of one spec built separate work tables")
	}
	if SpinCapTableFor(&a.Spec) != SpinCapTableFor(&b.Spec) {
		t.Error("sockets of one spec built separate spin tables")
	}
	other := Quartz()
	other.StaticPower++
	if CapTableFor(&other, ph) == CapTableFor(&a.Spec, ph) {
		t.Error("a different spec reused another spec's table")
	}
}

// TestSharedTableCacheBounded pins the cache bound: work mixes past the
// limit start the cache over instead of growing it.
func TestSharedTableCacheBounded(t *testing.T) {
	spec := Quartz()
	for i := 0; i <= maxSharedTables; i++ {
		CapTableFor(&spec, Phase{Work: kernel.Work{Flops: units.Flops(1e6 + i)}, Vector: kernel.YMM})
	}
	tablesMu.RLock()
	n := len(tables)
	tablesMu.RUnlock()
	if n > maxSharedTables {
		t.Fatalf("cache holds %d tables, bound %d", n, maxSharedTables)
	}
}

func BenchmarkFrequencyForCap(b *testing.B) {
	s := NewSocket(Quartz(), 1.0)
	ph := tablePhases()[2]
	cap := s.PowerAt(ph, s.Spec.BaseFreq)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.FrequencyForCap(ph, cap)
	}
}

// capSweep returns caps spread evenly over the table's in-bracket power
// range at eta — from the MinFreq power to the MaxTurbo power — so a sweep
// visits every grid bracket instead of one.
func capSweep(tbl *CapTable, eta float64, n int) []units.Power {
	pMin, pMax := tbl.gridPower(eta, 0), tbl.gridPower(eta, len(tbl.freqs)-1)
	caps := make([]units.Power, n)
	for i := range caps {
		caps[i] = pMin + (pMax-pMin)*units.Power((float64(i)+0.5)/float64(n))
	}
	return caps
}

// sinkFreq keeps benchmarked inversions from being optimized away.
var sinkFreq units.Frequency

// benchmarkInversion times invert over one work table and one spin table,
// alternating, each swept over its whole power range.
func benchmarkInversion(b *testing.B, invert func(*CapTable, float64, units.Power) units.Frequency) {
	s := NewSocket(Quartz(), 1.03)
	tbls := [2]*CapTable{CapTableFor(&s.Spec, tablePhases()[2]), SpinCapTableFor(&s.Spec)}
	caps := [2][]units.Power{capSweep(tbls[0], s.Eta, 251), capSweep(tbls[1], s.Eta, 251)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & 1
		c := caps[k]
		sinkFreq = invert(tbls[k], s.Eta, c[(i>>1)%len(c)])
	}
}

// BenchmarkCapTableFrequencyForCap times the guided inversion across the
// cap sweep; BenchmarkCapTableReferenceBisect times the plain in-bracket
// bisection it replaced on the same sweep, so one run reads the speed-up.
func BenchmarkCapTableFrequencyForCap(b *testing.B) {
	benchmarkInversion(b, (*CapTable).FrequencyForCap)
}

func BenchmarkCapTableReferenceBisect(b *testing.B) {
	benchmarkInversion(b, referenceBisect)
}

func BenchmarkOperate(b *testing.B) {
	s := NewSocket(Quartz(), 1.0)
	ph := tablePhases()[2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = s.Operate(ph, s.Spec.BaseFreq)
	}
}

func BenchmarkSeparateTimePowerUtil(b *testing.B) {
	s := NewSocket(Quartz(), 1.0)
	ph := tablePhases()[2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.TimeFor(ph, s.Spec.BaseFreq)
		_ = s.PowerAt(ph, s.Spec.BaseFreq)
		_ = s.Utilization(ph, s.Spec.BaseFreq)
	}
}
