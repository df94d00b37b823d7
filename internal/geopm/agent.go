// Package geopm reimplements the job-runtime half of the paper's stack: a
// per-job controller in the style of the Global Extensible Open Power
// Manager [Eastep et al., ISC'17] with pluggable agents. Three agents from
// the paper are provided:
//
//   - Monitor: observes energy/time/power without changing anything — the
//     source of the Figure 4 characterization and the "monitor
//     characterization runs" the baseline policies consume.
//   - PowerGovernor: enforces a uniform per-host cap from a job budget.
//   - PowerBalancer: the feedback controller that lowers limits where they
//     do not hurt the critical path and shifts the freed power to the hosts
//     that gate it — the source of the Figure 5 characterization and the
//     "needed power" signal the adaptive policies consume.
//
// A Static agent applies externally computed per-host limits, which is how
// the resource-manager policies of Section III drive the runtime.
package geopm

import (
	"fmt"
	"time"

	"powerstack/internal/units"
)

// HostSample is the per-host telemetry of one bulk-synchronous iteration,
// as read back through the RAPL energy counters and the BSP engine.
type HostSample struct {
	HostID string
	// WorkTime is the host's time-to-barrier this iteration.
	WorkTime time.Duration
	// Power is the host's mean power over the iteration, measured from
	// RAPL energy deltas.
	Power units.Power
	// Limit is the host's currently programmed power limit.
	Limit units.Power
	// MinLimit and MaxLimit bound what the agent may request.
	MinLimit units.Power
	MaxLimit units.Power
}

// Sample is one iteration's telemetry for the whole job. The controller
// refills one Hosts slice every iteration, so an agent copies what it keeps
// past its call.
type Sample struct {
	Iteration int
	Elapsed   time.Duration
	Hosts     []HostSample
}

// Agent is the GEOPM plugin interface: given a job power budget and the
// latest sample, it may return new per-host power limits. Returning nil
// leaves the current limits in place.
type Agent interface {
	// Name identifies the agent in reports ("monitor", "power_balancer"...).
	Name() string
	// Initialize returns the limits to program before the first
	// iteration, given the per-host bounds in the sample template.
	Initialize(budget units.Power, hosts []HostSample) []units.Power
	// Adjust reacts to one iteration's sample.
	Adjust(budget units.Power, s Sample) []units.Power
	// Converged reports whether the agent has reached steady state; the
	// characterization pipeline keys off this.
	Converged() bool
}

// NewAgentByName instantiates an agent from its report name, the way
// GEOPM's launcher resolves --geopm-agent. Stateful agents (the balancer,
// the frequency map) get fresh instances.
func NewAgentByName(name string) (Agent, error) {
	switch name {
	case "monitor":
		return Monitor{}, nil
	case "power_governor":
		return PowerGovernor{}, nil
	case "power_balancer":
		return NewPowerBalancer(), nil
	case "frequency_map":
		return &FrequencyMap{}, nil
	default:
		return nil, fmt.Errorf("geopm: unknown agent %q", name)
	}
}

// Monitor is the pass-through agent: it observes and never adjusts.
type Monitor struct{}

// Name implements Agent.
func (Monitor) Name() string { return "monitor" }

// Initialize implements Agent; the monitor leaves power-on limits alone.
func (Monitor) Initialize(units.Power, []HostSample) []units.Power { return nil }

// Adjust implements Agent.
func (Monitor) Adjust(units.Power, Sample) []units.Power { return nil }

// Converged implements Agent; a monitor is always in steady state.
func (Monitor) Converged() bool { return true }

// PowerGovernor enforces a uniform per-host cap of budget/len(hosts),
// clamped to the settable range — the initial state of every dynamic
// policy in Section III-A (step 1).
type PowerGovernor struct{}

// Name implements Agent.
func (PowerGovernor) Name() string { return "power_governor" }

// Initialize implements Agent.
func (PowerGovernor) Initialize(budget units.Power, hosts []HostSample) []units.Power {
	if len(hosts) == 0 {
		return nil
	}
	per := budget / units.Power(len(hosts))
	out := make([]units.Power, len(hosts))
	for i, h := range hosts {
		out[i] = units.Clamp(per, h.MinLimit, h.MaxLimit)
	}
	return out
}

// Adjust implements Agent; the governor is static after initialization.
func (PowerGovernor) Adjust(units.Power, Sample) []units.Power { return nil }

// Converged implements Agent.
func (PowerGovernor) Converged() bool { return true }

// Static applies externally computed per-host limits (the output of a
// resource-manager policy) and holds them.
type Static struct {
	// Limits are the per-host limits in host order.
	Limits []units.Power
}

// Name implements Agent.
func (Static) Name() string { return "static" }

// Initialize implements Agent.
func (a Static) Initialize(_ units.Power, hosts []HostSample) []units.Power {
	if len(a.Limits) != len(hosts) {
		return nil
	}
	out := make([]units.Power, len(hosts))
	for i, h := range hosts {
		out[i] = units.Clamp(a.Limits[i], h.MinLimit, h.MaxLimit)
	}
	return out
}

// Adjust implements Agent.
func (Static) Adjust(units.Power, Sample) []units.Power { return nil }

// Converged implements Agent.
func (Static) Converged() bool { return true }
