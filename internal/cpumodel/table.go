package cpumodel

import (
	"math"
	"sync"

	"powerstack/internal/units"
)

// CapTable precomputes the monotone frequency→power curve of one (spec,
// phase) pair on a fine grid, so a cap-to-frequency inversion is a binary
// search over grid powers plus a 24-step in-bracket bisection instead of
// the 48-step full-range bisection Socket.FrequencyForCap runs. The P-state
// range is small and discrete — [MinFreq, MaxTurbo] at FreqStep
// granularity — so a grid at FreqStep/8 (113 points on Quartz) brackets any
// cap tightly. The bisection is guided (see FrequencyForCap): it visits the
// same midpoints and takes the same branches as a plain one, but evaluates
// the power model only at the few midpoints next to the crossing.
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
// stack observes. The guided search decides all but a handful of the 24
// midpoints from two verified probes (see FrequencyForCap).
const capTableBisectIters = 24

// probeOffset is how far either side of the estimated crossing the guided
// search probes. Midpoints between the probes are evaluated, so a narrow
// pair saves evaluations, but the pair must still straddle the crossing
// and clear probeMargin. Truncating iteration times to whole nanoseconds
// puts a sawtooth of up to a few hertz on the power curve, which no smooth
// estimate follows. On the loaded 100k-node facility 2 Hz costs the
// fewest evaluations: about 5.5 per inversion, against 7.0 at 0.5 Hz,
// 5.9 at 4 Hz and 6.4 at 8 Hz.
const probeOffset units.Frequency = 2

// probeMargin is the relative clearance from the cap a probe's power must
// have before it decides midpoints it was not evaluated at. The model's
// power rises with frequency: the f^alpha term grows faster (alpha > 1)
// than pipe utilization falls (no faster than 1/f), and truncating the
// iteration time to whole nanoseconds only makes power step up. Its
// computed value carries a few ulps (~1e-15 relative) of rounding that is
// not monotone: a midpoint just below a probe could compute a hair above
// it. A probe that clears the cap by 1e-12 of its value leaves that noise
// three orders of magnitude of room.
const probeMargin = 1e-12

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

// Phase returns the work mix the table inverts; a spin table reports the
// zero phase. Node operating-point caches compare it against the phase they
// resolve to decide whether a held table still applies.
func (t *CapTable) Phase() Phase { return t.ph }

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
//
// The in-bracket bisection is guided but exact. Before it starts, probe
// estimates the crossing from the grid bracket and evaluates the power
// model at the estimate ± probeOffset. A probe whose power clears the cap
// by probeMargin decides every midpoint on its far side — by monotonicity
// that midpoint's power clears the cap the same way — so only midpoints
// between the probes (or beyond a probe that did not clear) are evaluated.
// The sequence of midpoints and branches, and therefore the result, is the
// plain bisection's bit for bit.
func (t *CapTable) FrequencyForCap(eta float64, cap units.Power) units.Frequency {
	n := len(t.freqs)
	if t.gridPower(eta, n-1) <= cap {
		return t.freqs[n-1]
	}
	if t.gridPower(eta, 0) > cap {
		return t.freqs[0]
	}
	// Largest grid point whose power fits the cap; its successor overshoots.
	// (sort.Search's probe sequence, without the closure.)
	k, j := 0, n
	for k < j {
		if h := int(uint(k+j) >> 1); t.gridPower(eta, h) > cap {
			j = h
		} else {
			k = h + 1
		}
	}
	i := k - 1
	lo, hi := t.freqs[i], t.freqs[i+1]
	below, above := units.Frequency(math.Inf(-1)), units.Frequency(math.Inf(1))
	if t.gridPower(eta, i) > cap {
		// Monotonicity dust broke the bracket (never observed for the
		// calibrated model); fall back to the full range, unguided.
		lo, hi = t.freqs[0], t.freqs[n-1]
	} else {
		below, above = t.probe(eta, cap, i)
	}
	for k := 0; k < capTableBisectIters; k++ {
		mid := (lo + hi) / 2
		switch {
		case mid <= below:
			lo = mid
		case mid >= above:
			hi = mid
		case t.powerAt(eta, mid) <= cap:
			lo = mid
		default:
			hi = mid
		}
	}
	return lo
}

// probe estimates the cap crossing inside grid bracket [i, i+1] and
// returns the verified bounds of the guided bisection: every frequency at
// or below below draws less than the cap, every one at or above above
// draws more, each with probeMargin to spare. A bound no evaluation could
// verify stays infinite, which leaves its side to plain bisection.
//
// The estimate costs one model evaluation. Inverse cubic interpolation over
// the four grid points around the bracket lands near the crossing, and one
// secant step through that point and the nearer bracket end refines it to
// well inside probeOffset on a smooth stretch of the curve. (A chord across
// the bracket alone lands kilohertz low on this convex curve and needs two
// more secant steps.) The evaluation at the interpolated point counts as a
// probe too, and replaces the probe on its side when it is the tighter
// bound.
func (t *CapTable) probe(eta float64, cap units.Power, i int) (below, above units.Frequency) {
	below, above = units.Frequency(math.Inf(-1)), units.Frequency(math.Inf(1))
	margin := probeMargin * units.Power(math.Abs(float64(cap)))
	check := func(f units.Frequency) units.Power {
		p := t.powerAt(eta, f)
		if p <= cap-margin && f > below {
			below = f
		}
		if p > cap+margin && f < above {
			above = f
		}
		return p
	}
	lo, hi := t.freqs[i], t.freqs[i+1]
	est := t.interpolate(eta, cap, i)
	if est > lo && est < hi {
		end, pEnd := hi, t.gridPower(eta, i+1)
		if est-lo < hi-est {
			end, pEnd = lo, t.gridPower(eta, i)
		}
		if p := check(est); p != pEnd {
			est -= (est - end) * units.Frequency((p-cap)/(p-pEnd))
		}
	}
	// A NaN or out-of-bracket estimate (flat or broken grid powers) leaves
	// both bounds unverified. The interpolated point, when it verified a
	// side within probeOffset of the refined estimate, already bounds that
	// side at least as tightly as a probe would.
	if est >= lo && est <= hi {
		if below < est-probeOffset {
			check(est - probeOffset)
		}
		if above > est+probeOffset {
			check(est + probeOffset)
		}
	}
	return below, above
}

// interpolate inverts the grid by Lagrange interpolation of frequency over
// grid power through the four grid points around bracket [i, i+1] (fewer on
// a shorter grid), evaluated at the cap.
func (t *CapTable) interpolate(eta float64, cap units.Power, i int) units.Frequency {
	const nodes = 4
	n := len(t.freqs)
	a := max(0, min(i-1, n-nodes))
	m := min(nodes, n-a)
	var ps [nodes]units.Power
	for k := 0; k < m; k++ {
		ps[k] = t.gridPower(eta, a+k)
	}
	var f units.Frequency
	for k := 0; k < m; k++ {
		w := 1.0
		for l := 0; l < m; l++ {
			if l != k {
				w *= float64((cap - ps[l]) / (ps[k] - ps[l]))
			}
		}
		f += units.Frequency(w) * t.freqs[a+k]
	}
	return f
}
