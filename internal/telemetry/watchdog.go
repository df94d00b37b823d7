package telemetry

import (
	"errors"
	"fmt"
	"time"

	"powerstack/internal/obs"
	"powerstack/internal/units"
)

// Watchdog enforces a power budget over a hierarchy: when the sampled power
// exceeds the budget beyond a tolerance, it clamps the highest-drawing
// leaves' RAPL limits down until the projected draw fits. This is the
// resource manager's safety net against policies that overrun (e.g. the
// Precharacterized policy of Figure 7) and against workload phase changes
// between policy decisions.
type Watchdog struct {
	// Hierarchy is the enforcement scope.
	Hierarchy *Hierarchy
	// Budget is the enforced power limit.
	Budget units.Power
	// Tolerance is the relative overshoot ignored (RAPL quantization,
	// sampling noise). Default 1%.
	Tolerance float64
	// ClampStep is the relative cut applied to an offender's limit per
	// enforcement action. Default 5%.
	ClampStep float64

	// Violations counts budget breaches observed.
	Violations int
	// Clamps counts limit reductions applied.
	Clamps int

	// Obs records power samples, violations, and clamps when observability
	// is enabled; nil is free.
	Obs *obs.Sink
}

// NewWatchdog builds a watchdog with default tuning.
func NewWatchdog(h *Hierarchy, budget units.Power) (*Watchdog, error) {
	if h == nil {
		return nil, errors.New("telemetry: watchdog needs a hierarchy")
	}
	if budget <= 0 {
		return nil, errors.New("telemetry: watchdog budget must be positive")
	}
	return &Watchdog{Hierarchy: h, Budget: budget, Tolerance: 0.01, ClampStep: 0.05}, nil
}

// Check samples the hierarchy at ts and enforces the budget. It returns the
// sampled power and whether a violation was handled.
func (w *Watchdog) Check(ts time.Time) (units.Power, bool, error) {
	p := w.Hierarchy.Sample(ts)
	w.Obs.PowerSample(rootName, p.Watts())
	limit := units.Power(float64(w.Budget) * (1 + w.Tolerance))
	if p <= limit {
		return p, false, nil
	}
	w.Violations++
	w.Obs.Violation(rootName, p.Watts(), w.Budget.Watts())
	if err := w.clamp(p); err != nil {
		return p, true, err
	}
	return p, true, nil
}

// clamp reduces the highest-drawing leaves' limits until the projected
// total fits the budget.
func (w *Watchdog) clamp(observed units.Power) error {
	excess := observed - w.Budget
	h := w.Hierarchy
	for _, i := range h.TopConsumers(len(h.nodes)) {
		if excess <= 0 {
			break
		}
		n := h.nodes[i]
		cur, err := n.PowerLimit()
		if err != nil {
			return fmt.Errorf("telemetry: clamping %s: %w", n.ID, err)
		}
		next := units.Power(float64(cur) * (1 - w.ClampStep))
		programmed, err := n.SetPowerLimit(next)
		if err != nil {
			return fmt.Errorf("telemetry: clamping %s: %w", n.ID, err)
		}
		if programmed < cur {
			w.Clamps++
			w.Obs.Clamp(n.ID, cur.Watts(), programmed.Watts())
			excess -= cur - programmed
		}
	}
	return nil
}
