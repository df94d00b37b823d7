package cpumodel

import (
	"math"
	"sort"
	"sync"

	"powerstack/internal/units"
)

// CapTable precomputes the monotone frequency→power curve of one (spec,
// phase) pair on a fine grid, so cap-to-frequency inversions need a binary
// search over grid powers plus a short in-bracket bisection instead of the
// 48 full power-model evaluations FrequencyForCap spends. The P-state range
// is small and discrete — [MinFreq, MaxTurbo] at FreqStep granularity — so a
// grid at FreqStep/8 (113 points on Quartz) brackets any cap tightly.
//
// The table stores only the eta-free terms of the power law at each grid
// point — pow = fhat(f)^alpha and the activity factor d — so one table
// serves every socket of the spec: a socket's grid power is
// StaticPower + eta·pow·d, the very float operations Socket.PowerAt
// performs, and the inversion is bit-identical to one over a per-socket
// table. Tables are immutable after construction and safe to share across
// goroutines; CapTableFor hands out one per (spec, phase) for the whole
// process.
type CapTable struct {
	// s carries the spec for the activity terms; its eta is unused (the
	// caller supplies one per inversion).
	s    Socket
	ph   Phase
	spin bool
	// freqs ascends from MinFreq to MaxTurbo; pows[i] and ds[i] are the
	// power-law terms at freqs[i].
	freqs []units.Frequency
	pows  []float64
	ds    []float64
}

// capTableSubSteps is the grid refinement below the P-state step.
const capTableSubSteps = 8

// capTableBisectIters bounds the in-bracket bisection. A FreqStep/8 bracket
// (12.5 MHz on Quartz) halved 24 times resolves frequency below 1 Hz —
// indistinguishable from the full-range bisection at every tolerance the
// stack observes, at half the power-model evaluations.
const capTableBisectIters = 24

// tableKey identifies a shared table: the full spec (every field enters the
// power law) plus the work mix, or the spin loop.
type tableKey struct {
	spec Spec
	ph   Phase
	spin bool
}

// maxSharedTables bounds the process-wide table cache. Work mixes scale
// with job size, so a long-lived service can meet an unbounded number of
// them; when the cache fills it starts over. Tables are pure functions of
// their key, so a rebuilt table is identical to the one dropped.
const maxSharedTables = 4096

var (
	tablesMu sync.RWMutex
	tables   = map[tableKey]*CapTable{}
)

// CapTableFor returns the process-wide cap table of the phase's work mix on
// sockets of the given spec, building it on first use.
func CapTableFor(spec *Spec, ph Phase) *CapTable {
	return sharedTable(tableKey{spec: *spec, ph: ph})
}

// SpinCapTableFor returns the process-wide cap table of the spin-wait loop
// on sockets of the given spec.
func SpinCapTableFor(spec *Spec) *CapTable {
	return sharedTable(tableKey{spec: *spec, spin: true})
}

func sharedTable(k tableKey) *CapTable {
	tablesMu.RLock()
	t := tables[k]
	tablesMu.RUnlock()
	if t != nil {
		return t
	}
	tablesMu.Lock()
	defer tablesMu.Unlock()
	if t = tables[k]; t == nil {
		if len(tables) >= maxSharedTables {
			clear(tables)
		}
		t = newCapTable(k.spec, k.ph, k.spin)
		tables[k] = t
	}
	return t
}

func newCapTable(spec Spec, ph Phase, spin bool) *CapTable {
	lo, hi := spec.MinFreq, spec.MaxTurbo
	step := spec.FreqStep / capTableSubSteps
	if step <= 0 {
		step = (hi - lo) / 128
	}
	t := &CapTable{s: Socket{Spec: spec, Eta: 1}, ph: ph, spin: spin}
	add := func(f units.Frequency) {
		pow, d := t.terms(f)
		t.freqs = append(t.freqs, f)
		t.pows = append(t.pows, pow)
		t.ds = append(t.ds, d)
	}
	if step <= 0 { // degenerate spec: single-point range
		add(lo)
		add(hi)
		return t
	}
	n := int((hi-lo)/step) + 2
	t.freqs = make([]units.Frequency, 0, n)
	t.pows = make([]float64, 0, n)
	t.ds = make([]float64, 0, n)
	for f := lo; f < hi; f += step {
		add(f)
	}
	add(hi)
	return t
}

// terms evaluates the eta-free power-law terms at f.
func (t *CapTable) terms(f units.Frequency) (pow, d float64) {
	pow = math.Pow(t.s.fhat(f), t.s.Spec.FreqExponent)
	if t.spin {
		return pow, t.s.Spec.CBase + t.s.Spec.CSpin
	}
	return pow, t.s.activity(t.ph, f)
}

// gridPower is a socket's power at grid point i.
func (t *CapTable) gridPower(eta float64, i int) units.Power {
	return t.s.Spec.power(eta, t.pows[i], t.ds[i])
}

// powerAt is a socket's power at an arbitrary frequency.
func (t *CapTable) powerAt(eta float64, f units.Frequency) units.Power {
	pow, d := t.terms(f)
	return t.s.Spec.power(eta, pow, d)
}

// FrequencyForCap returns the achieved frequency at which a socket with
// variation multiplier eta meets the cap on the table's phase, with the same
// boundary semantics as Socket.FrequencyForCap: MaxTurbo if even full speed
// fits the cap, MinFreq if even the lowest P-state overshoots it. The
// returned frequency always satisfies power(f) <= cap away from the MinFreq
// floor — the bisection keeps the bracket invariant the property tests pin.
func (t *CapTable) FrequencyForCap(eta float64, cap units.Power) units.Frequency {
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
