// Package policy implements the five system-level power management
// policies of Section III. Each policy turns a system-wide power budget
// plus per-job characterization data into per-host power caps:
//
//   - StaticCaps: uniform distribution, no awareness of anything — the
//     baseline every Figure 8 metric is normalized against.
//   - Precharacterized: user-submitted caps from an uncapped monitor run;
//     ignores the system budget entirely (and overruns it — Figure 7).
//   - MinimizeWaste: system-power-aware but performance-agnostic; emulates
//     SLURM's dynamic power management by steering unused budget from
//     low-power jobs to high-power jobs based on observed consumption.
//   - JobAdaptive: application-aware within each job (GEOPM-style needed
//     power) but unable to share power across jobs.
//   - MixedAdaptive: the paper's proposal — the job runtime's needed-power
//     signal drives a resource-manager-level redistribution across and
//     within jobs (Section III-A steps 1-4).
//
// All policies clamp to the hosts' settable range [min RAPL limit, TDP].
package policy

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"powerstack/internal/bsp"
	"powerstack/internal/charz"
	"powerstack/internal/units"
)

// HostInfo describes one host of a job from the policy's perspective.
type HostInfo struct {
	// Role is the host's critical-path membership (known to the
	// application-aware policies through the balancer characterization).
	Role bsp.Role
	// Min and Max bound the settable power limit.
	Min units.Power
	Max units.Power
}

// JobInfo is one scheduled job plus its characterization record.
type JobInfo struct {
	ID    string
	Hosts []HostInfo
	Char  charz.Entry
	// Fallback marks a job whose characterization is missing or corrupt.
	// Every policy gives such a job the StaticCaps treatment — a uniform
	// clamped share of the budget per host — instead of reading its Char
	// fields, so one damaged database record degrades that job's
	// allocation quality without failing the whole plan.
	Fallback bool
}

// System describes the cluster-level constraint.
type System struct {
	// Budget is the system-wide power limit (Table III).
	Budget units.Power
}

// Allocation maps job IDs to per-host power caps (in host order).
type Allocation map[string][]units.Power

// Total returns the summed allocated power. Jobs are summed in sorted ID
// order: float addition is not associative, so summing in map iteration
// order would make the low bits of the total — and anything derived from
// it, like budget-overrun accounting — vary from run to run.
func (a Allocation) Total() units.Power {
	ids := make([]string, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var t units.Power
	for _, id := range ids {
		for _, c := range a[id] {
			t += c
		}
	}
	return t
}

// Policy computes per-host power caps for a set of concurrent jobs.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Allocate computes the per-host caps.
	Allocate(sys System, jobs []JobInfo) (Allocation, error)
}

// ErrNoJobs is returned when Allocate is called with no jobs.
var ErrNoJobs = errors.New("policy: no jobs to allocate for")

func validate(jobs []JobInfo) (totalHosts int, err error) {
	if len(jobs) == 0 {
		return 0, ErrNoJobs
	}
	for _, j := range jobs {
		if len(j.Hosts) == 0 {
			return 0, fmt.Errorf("policy: job %s has no hosts", j.ID)
		}
		totalHosts += len(j.Hosts)
	}
	return totalHosts, nil
}

// All returns one instance of every policy, in the paper's presentation
// order.
func All() []Policy {
	return []Policy{
		Precharacterized{},
		StaticCaps{},
		MinimizeWaste{},
		JobAdaptive{},
		MixedAdaptive{},
	}
}

// nameSeparators are the characters ByName ignores.
var nameSeparators = strings.NewReplacer("-", "", "_", "")

// ByName resolves a policy by its report name, ignoring case and the
// separators "-" and "_": "MixedAdaptive", "mixed-adaptive", and
// "mixed_adaptive" all match.
func ByName(name string) (Policy, error) {
	canon := func(s string) string { return nameSeparators.Replace(strings.ToLower(s)) }
	want := canon(name)
	for _, p := range All() {
		if canon(p.Name()) == want {
			return p, nil
		}
	}
	return nil, fmt.Errorf("policy: unknown policy %q", name)
}

// Dynamic returns the three dynamic policies compared in Figure 8.
func Dynamic() []Policy {
	return []Policy{MinimizeWaste{}, JobAdaptive{}, MixedAdaptive{}}
}

// ---------------------------------------------------------------------------

// StaticCaps distributes the system budget uniformly across every host of
// every job and holds it — the baseline with neither system nor application
// awareness. Its final state equals the initial state of the MinimizeWaste
// and MixedAdaptive power-sharing policies (Section III-B).
type StaticCaps struct{}

// Name implements Policy.
func (StaticCaps) Name() string { return "StaticCaps" }

// Allocate implements Policy.
func (StaticCaps) Allocate(sys System, jobs []JobInfo) (Allocation, error) {
	total, err := validate(jobs)
	if err != nil {
		return nil, err
	}
	per := sys.Budget / units.Power(total)
	out := Allocation{}
	for _, j := range jobs {
		caps := make([]units.Power, len(j.Hosts))
		for i, h := range j.Hosts {
			caps[i] = units.Clamp(per, h.Min, h.Max)
		}
		out[j.ID] = caps
	}
	return out, nil
}

// ---------------------------------------------------------------------------

// Precharacterized applies, to every host of a job, the average power of
// the job's most power-hungry node from the uncapped monitor run — the
// user-driven practice of Section III-B, which is unaware of the system
// budget and therefore overruns it at tight budgets (Figure 7).
type Precharacterized struct{}

// Name implements Policy.
func (Precharacterized) Name() string { return "Precharacterized" }

// Allocate implements Policy. Fallback jobs have no monitor run to quote
// caps from; they receive a uniform share of the system budget instead.
func (Precharacterized) Allocate(sys System, jobs []JobInfo) (Allocation, error) {
	total, err := validate(jobs)
	if err != nil {
		return nil, err
	}
	per := sys.Budget / units.Power(total)
	out := Allocation{}
	for _, j := range jobs {
		caps := make([]units.Power, len(j.Hosts))
		for i, h := range j.Hosts {
			if j.Fallback {
				caps[i] = units.Clamp(per, h.Min, h.Max)
			} else {
				caps[i] = units.Clamp(j.Char.MonitorMaxHostPower, h.Min, h.Max)
			}
		}
		out[j.ID] = caps
	}
	return out, nil
}
