package geopm

import (
	"slices"
	"time"

	"powerstack/internal/units"
)

// PowerBalancer is the feedback agent of Section II/IV-B: it "reduces the
// power limit where it does not impact performance, and redistributes that
// power where it can improve performance, all during execution". Each
// iteration it measures every host's time-to-barrier, lowers the limits of
// hosts with slack (proportionally to their slack), and grants the freed
// power to the hosts on the critical path.
//
// The controller converges when the barrier slack across hosts falls below
// DefaultSlackEpsilon or the slack hosts hit their minimum settable limits; the
// per-host limits at convergence are the "needed power" signal consumed by
// the JobAdaptive and MixedAdaptive policies.
type PowerBalancer struct {
	// Gain is the proportional step: a host with 30% slack loses
	// Gain*30% of its current limit in one iteration.
	Gain float64
	// MinPowerFraction is the headroom guard: the balancer never cuts a
	// host below this fraction of the power it first observed the host
	// drawing. A production balancer keeps this margin so a
	// de-prioritized host can rejoin the critical path within one
	// control interval when the application's phase behavior shifts;
	// the value is calibrated so the Figure 5 waiting-rank columns land
	// where the paper measured them (~83% of uncapped draw).
	MinPowerFraction float64
	// ReleaseFreedPower switches the balancer into harvest mode for the
	// execution-time coordination protocol: power freed from slack hosts
	// is *not* re-granted to the job's own critical hosts — it is left
	// unallocated so the job's reported need drops and the resource
	// manager can steer it across jobs. Budget increases granted by the
	// manager still flow to the critical hosts.
	ReleaseFreedPower bool

	firstPower  []units.Power
	lastBudget  units.Power
	quietRounds int
	converged   bool

	// limits, critical and headroom are Adjust's per-host buffers; the
	// limits it returns alias limits until the next Adjust.
	limits             []units.Power
	critical, headroom []int
}

// Balancer tuning defaults; see the ablation benchmarks for the
// sensitivity of convergence speed to Gain and of harvested power to
// MinPowerFraction.
const (
	DefaultGain = 0.5
	// DefaultSlackEpsilon is the relative barrier slack treated as "on
	// the critical path", by the balancer and by the coordination
	// protocol's MaxUseful report alike.
	DefaultSlackEpsilon     = 0.02
	DefaultMinPowerFraction = 0.82
	// convergedAfterQuiet is how many consecutive no-adjustment rounds
	// declare convergence.
	convergedAfterQuiet = 3
	// minAdjust is the smallest limit change worth programming: one RAPL
	// power LSB (0.125 W) per socket. Below it, the write-quantize-read
	// round trip flaps forever without changing hardware state.
	minAdjust = 0.25 * units.Watt
)

// NewPowerBalancer returns a balancer with default tuning.
func NewPowerBalancer() *PowerBalancer {
	return &PowerBalancer{
		Gain:             DefaultGain,
		MinPowerFraction: DefaultMinPowerFraction,
	}
}

// Name implements Agent.
func (b *PowerBalancer) Name() string { return "power_balancer" }

// Initialize implements Agent: the balancer starts from the uniform
// distribution, like the governor.
func (b *PowerBalancer) Initialize(budget units.Power, hosts []HostSample) []units.Power {
	b.converged = false
	b.quietRounds = 0
	b.firstPower = nil
	b.lastBudget = budget
	return PowerGovernor{}.Initialize(budget, hosts)
}

// Adjust implements Agent. If the job's budget changed since the limits
// were programmed (the execution-time coordination protocol renegotiates
// budgets between iterations), the change is folded into this round: a
// raised budget becomes extra pool for the critical hosts, a lowered
// budget scales every limit down proportionally.
func (b *PowerBalancer) Adjust(budget units.Power, s Sample) []units.Power {
	n := len(s.Hosts)
	if n == 0 {
		return nil
	}
	var tMax time.Duration
	for _, h := range s.Hosts {
		if h.WorkTime > tMax {
			tMax = h.WorkTime
		}
	}
	if tMax <= 0 {
		return nil
	}

	// Record the power each host drew in the first sample (at the
	// uniform initial distribution); the headroom guard floors at a
	// fraction of it.
	if b.firstPower == nil {
		b.firstPower = make([]units.Power, n)
		for i, h := range s.Hosts {
			b.firstPower[i] = h.Power
		}
	}

	limits := slices.Grow(b.limits[:0], n)[:n]
	b.limits = limits
	for i, h := range s.Hosts {
		limits[i] = h.Limit
	}
	adjusted := false

	// Fold in a renegotiated budget. A raised budget becomes extra pool
	// for the critical hosts. A lowered budget only forces action when
	// the *programmed* limits exceed it — in harvest mode the limits
	// usually already sit below the old grant, and the reduction merely
	// ratifies power the balancer had released.
	var bonus units.Power
	if delta, changed := b.budgetChange(budget); changed {
		b.converged = false
		b.quietRounds = 0
		if delta > 0 {
			bonus = delta
		} else {
			var total units.Power
			for i := range limits {
				total += limits[i]
			}
			if total > budget {
				scale := float64(budget) / float64(total)
				for i, h := range s.Hosts {
					next := units.Clamp(units.Power(float64(limits[i])*scale), h.MinLimit, h.MaxLimit)
					if next != limits[i] {
						limits[i] = next
						adjusted = true
					}
				}
			}
		}
	}

	var freed units.Power
	critical := b.critical[:0]
	for i, h := range s.Hosts {
		slack := float64(tMax-h.WorkTime) / float64(tMax)
		if slack <= DefaultSlackEpsilon {
			critical = append(critical, i)
			continue
		}
		floor := h.MinLimit
		if i < len(b.firstPower) {
			if guard := units.Power(b.MinPowerFraction * float64(b.firstPower[i])); guard > floor {
				floor = guard
			}
		}
		cut := units.Power(b.Gain * slack * float64(limits[i]))
		next := units.Clamp(limits[i]-cut, floor, h.MaxLimit)
		if next < limits[i]-minAdjust {
			freed += limits[i] - next
			limits[i] = next
			adjusted = true
		}
	}

	// Grant the pool to the critical hosts, respecting their ceilings;
	// leftover power simply goes unused (an energy saving). In harvest
	// mode the job's own freed power is withheld so the resource manager
	// can steer it across jobs; budget bonuses always flow.
	pool := bonus
	if !b.ReleaseFreedPower {
		pool += freed
	}
	b.critical = critical
	if pool > minAdjust && len(critical) > 0 {
		granted := b.grant(limits, s.Hosts, critical, pool)
		if granted > minAdjust {
			adjusted = true
		}
	}

	if adjusted {
		b.quietRounds = 0
	} else {
		b.quietRounds++
		if b.quietRounds >= convergedAfterQuiet {
			b.converged = true
		}
	}
	if !adjusted {
		return nil
	}
	return limits
}

// budgetChange compares the budget against the last one the balancer saw,
// returning the delta when it moved more than half a percent.
func (b *PowerBalancer) budgetChange(budget units.Power) (delta units.Power, changed bool) {
	if budget <= 0 {
		return 0, false
	}
	if b.lastBudget <= 0 {
		b.lastBudget = budget
		return 0, false
	}
	drift := float64(budget-b.lastBudget) / float64(b.lastBudget)
	if drift > -0.005 && drift < 0.005 {
		return 0, false
	}
	delta = budget - b.lastBudget
	b.lastBudget = budget
	return delta, true
}

// grant distributes freed power equally across the critical hosts, looping
// while headroom remains. It returns the amount actually granted.
func (b *PowerBalancer) grant(limits []units.Power, hosts []HostSample, critical []int, freed units.Power) units.Power {
	var granted units.Power
	remaining := freed
	for pass := 0; pass < 8 && remaining > 0.01; pass++ {
		withHeadroom := b.headroom[:0]
		for _, i := range critical {
			if limits[i] < hosts[i].MaxLimit {
				withHeadroom = append(withHeadroom, i)
			}
		}
		b.headroom = withHeadroom
		if len(withHeadroom) == 0 {
			break
		}
		share := remaining / units.Power(len(withHeadroom))
		for _, i := range withHeadroom {
			next := units.Clamp(limits[i]+share, hosts[i].MinLimit, hosts[i].MaxLimit)
			got := next - limits[i]
			limits[i] = next
			granted += got
			remaining -= got
		}
	}
	return granted
}

// Converged implements Agent.
func (b *PowerBalancer) Converged() bool { return b.converged }
