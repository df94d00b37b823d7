package policy

import (
	"sync"

	"powerstack/internal/units"
)

// slot is the flattened per-host allocation state shared by the three
// dynamic policies.
type slot struct {
	job      int // index into the jobs slice
	idx      int // host index within the job
	min, max units.Power
	// target is the per-host power signal the policy reclaims toward:
	// balancer "needed power" for the application-aware policies,
	// monitor "observed power" for MinimizeWaste.
	target units.Power
	alloc  units.Power
}

// signalKind selects which characterization signal sets slot targets.
type signalKind uint8

const (
	// sigNeeded targets the balancer's performance-aware needed power.
	sigNeeded signalKind = iota
	// sigMonitor targets the monitor run's observed power.
	sigMonitor
)

// scratch holds the per-Allocate working buffers the dynamic policies reuse
// across replans. A facility run replans on every running-set change — and
// a campaign multiplies that by its scenario matrix — so the flatten/top-up
// slices are pooled instead of reallocated per call. Buffers are reset, not
// reallocated, between uses; results are value-copied out by assemble, so
// reuse never leaks state between calls.
type scratch struct {
	slots   []slot
	needy   []int
	open    []int
	weights []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// appendJob flattens one job's hosts into s.slots with targets from the
// given signal. Fallback jobs (missing or corrupt characterization entries)
// target the uniform per-host share instead of reading Char fields: their
// hosts neither donate to nor draw from the redistribution pool, which is
// exactly the StaticCaps treatment.
func (s *scratch) appendJob(ji int, j JobInfo, per units.Power, kind signalKind) {
	for hi, h := range j.Hosts {
		target := per
		if !j.Fallback {
			if kind == sigMonitor {
				target = j.Char.MonitorPowerForRole(h.Role)
			} else {
				target = j.Char.NeededForRole(h.Role)
			}
		}
		s.slots = append(s.slots, slot{
			job:    ji,
			idx:    hi,
			min:    h.Min,
			max:    h.Max,
			target: units.Clamp(target, h.Min, h.Max),
		})
	}
}

// flattenAll rebuilds s.slots over every host of every job.
func (s *scratch) flattenAll(jobs []JobInfo, per units.Power, kind signalKind) {
	s.slots = s.slots[:0]
	for ji, j := range jobs {
		s.appendJob(ji, j, per, kind)
	}
}

// flattenJob rebuilds s.slots over a single job's hosts.
func (s *scratch) flattenJob(j JobInfo, per units.Power, kind signalKind) {
	s.slots = s.slots[:0]
	s.appendJob(0, j, per, kind)
}

// uniformInit implements step 1 of Section III-A: distribute the budget
// uniformly, clamped to the settable range.
func uniformInit(slots []slot, budget units.Power) {
	if len(slots) == 0 {
		return
	}
	per := budget / units.Power(len(slots))
	for i := range slots {
		slots[i].alloc = units.Clamp(per, slots[i].min, slots[i].max)
	}
}

// reclaim implements step 2: decrease each host's allocation down to its
// target, returning the deallocated power.
func reclaim(slots []slot) units.Power {
	var pool units.Power
	for i := range slots {
		if slots[i].alloc > slots[i].target {
			pool += slots[i].alloc - slots[i].target
			slots[i].alloc = slots[i].target
		}
	}
	return pool
}

// topUp implements step 3: distribute the pool uniformly among hosts that
// need more power (allocation below target), at most up to the target,
// repeating until the pool is exhausted or every host is satisfied. It
// returns the unspent remainder.
func (s *scratch) topUp(pool units.Power) units.Power {
	const eps = 1e-6
	slots := s.slots
	for pool > eps {
		s.needy = s.needy[:0]
		for i := range slots {
			if slots[i].alloc < slots[i].target-units.Power(eps) {
				s.needy = append(s.needy, i)
			}
		}
		if len(s.needy) == 0 {
			break
		}
		share := pool / units.Power(len(s.needy))
		var spent units.Power
		for _, i := range s.needy {
			grant := slots[i].target - slots[i].alloc
			if grant > share {
				grant = share
			}
			slots[i].alloc += grant
			spent += grant
		}
		pool -= spent
		if spent <= units.Power(eps) {
			break
		}
	}
	return pool
}

// weightedSurplus implements step 4: a single weighted pass that allocates
// the remaining pool across the hosts, with weights equal to the distance
// from each host's minimum settable limit to its current allocation, each
// grant ceilinged at the host maximum (TDP). Hosts with zero weight
// (sitting at their minimum) fall back to a uniform share.
//
// Deliberately a single pass: budget a host's ceiling rejects goes
// *unallocated* rather than spilling onto low-weight (waiting) hosts. This
// is what lets the application-aware policies leave surplus power unused at
// relaxed budgets — the Figure 7 marker-(a) under-utilization that turns
// into the Figure 8 energy savings — instead of re-inflating the caps of
// hosts that would only burn the power spinning at a barrier. It returns
// the unspent remainder.
func (s *scratch) weightedSurplus(pool units.Power) units.Power {
	const eps = 1e-6
	if pool <= eps {
		return pool
	}
	slots := s.slots
	s.open = s.open[:0]
	s.weights = s.weights[:0]
	var totalW float64
	for i := range slots {
		if slots[i].alloc >= slots[i].max-units.Power(eps) {
			continue
		}
		w := float64(slots[i].alloc - slots[i].min)
		s.open = append(s.open, i)
		s.weights = append(s.weights, w)
		totalW += w
	}
	if len(s.open) == 0 {
		return pool
	}
	var spent units.Power
	for k, i := range s.open {
		var share units.Power
		if totalW > 0 {
			share = units.Power(float64(pool) * s.weights[k] / totalW)
		} else {
			share = pool / units.Power(len(s.open))
		}
		grant := slots[i].max - slots[i].alloc
		if grant > share {
			grant = share
		}
		slots[i].alloc += grant
		spent += grant
	}
	return pool - spent
}

// assemble converts slots back into an Allocation. The returned map and cap
// slices are freshly allocated — they are the policy's API result and must
// outlive the pooled scratch the slots came from. Slots address their row
// by job index, so each job's ID is hashed once, not once per host.
func assemble(jobs []JobInfo, slots []slot) Allocation {
	out := make(Allocation, len(jobs))
	rows := make([][]units.Power, len(jobs))
	for ji, j := range jobs {
		rows[ji] = make([]units.Power, len(j.Hosts))
		out[j.ID] = rows[ji]
	}
	for _, s := range slots {
		rows[s.job][s.idx] = s.alloc
	}
	return out
}

// ---------------------------------------------------------------------------

// MinimizeWaste is the system-power-aware, application-agnostic policy of
// Section III-B: it statically emulates SLURM's dynamic power management by
// reclaiming the budget low-power jobs leave unused (based on the monitor
// run's *observed* power, not the performance-aware needed power) and
// steering it to high-power jobs.
type MinimizeWaste struct{}

// Name implements Policy.
func (MinimizeWaste) Name() string { return "MinimizeWaste" }

// Allocate implements Policy.
func (MinimizeWaste) Allocate(sys System, jobs []JobInfo) (Allocation, error) {
	total, err := validate(jobs)
	if err != nil {
		return nil, err
	}
	s := getScratch()
	defer putScratch(s)
	s.flattenAll(jobs, sys.Budget/units.Power(total), sigMonitor)
	uniformInit(s.slots, sys.Budget)
	pool := reclaim(s.slots)
	pool = s.topUp(pool)
	s.weightedSurplus(pool)
	return assemble(jobs, s.slots), nil
}

// ---------------------------------------------------------------------------

// JobAdaptive is the application-aware, system-agnostic policy of Section
// III-B: each job receives a fixed uniform share of the system budget and
// distributes it internally using the balancer's performance-aware needed
// power. Power cannot cross job boundaries, so budget one job leaves unused
// is wasted while another job stays power-bound (Figure 7 marker b).
type JobAdaptive struct{}

// Name implements Policy.
func (JobAdaptive) Name() string { return "JobAdaptive" }

// Allocate implements Policy. Each job runs the same four steps as
// MixedAdaptive but scoped to its own uniform share of the budget
// (Section III-B): at the min budget no host's uniform share exceeds its
// needed power, so the policy remains in the uniform initial state — the
// behavior Section VI-B observes for both adaptive policies.
func (JobAdaptive) Allocate(sys System, jobs []JobInfo) (Allocation, error) {
	total, err := validate(jobs)
	if err != nil {
		return nil, err
	}
	per := sys.Budget / units.Power(total)
	out := Allocation{}
	s := getScratch()
	defer putScratch(s)
	for _, j := range jobs {
		jobBudget := per * units.Power(len(j.Hosts))
		s.flattenJob(j, per, sigNeeded)
		uniformInit(s.slots, jobBudget)
		pool := reclaim(s.slots)
		s.topUp(pool)
		// Any surplus left after every host reaches its needed power
		// stays unprogrammed: the application-aware runtime refuses to
		// raise a host's limit past its characterized need, because the
		// extra power would only be burned spinning at barriers. This is
		// the budget under-utilization of Figure 7 marker (a) that turns
		// into the energy savings of Figure 8 at relaxed budgets.
		caps := make([]units.Power, len(j.Hosts))
		for _, sl := range s.slots {
			caps[sl.idx] = sl.alloc
		}
		out[j.ID] = caps
	}
	return out, nil
}

// ---------------------------------------------------------------------------

// MixedAdaptive is the paper's proposed policy (Section III-A): the job
// runtime's performance-aware needed-power signal drives a system-wide
// redistribution. Steps:
//
//  1. Uniformly distribute the system power limit among hosts across all
//     jobs.
//  2. Decrease each host's allocation to its characterized needed power;
//     the decrease becomes the deallocated pool.
//  3. Uniformly distribute the pool among hosts that need more power, up
//     to their characterized power, repeating until the pool empties or
//     everyone is satisfied.
//  4. Account any remaining surplus to hosts weighted by the distance from
//     each host's minimum settable limit to its allocation.
//
// Step 4 is budget bookkeeping: the surplus is *reserved* against demand
// variability, but the job runtime does not program host limits above the
// characterized need — doing so would only let de-prioritized hosts burn
// the headroom spinning at barriers. The programmed caps therefore come
// from steps 1-3, and the unprogrammed surplus shows up as the
// below-budget power utilization of Figure 7 marker (a).
type MixedAdaptive struct{}

// Name implements Policy.
func (MixedAdaptive) Name() string { return "MixedAdaptive" }

// Allocate implements Policy.
func (MixedAdaptive) Allocate(sys System, jobs []JobInfo) (Allocation, error) {
	total, err := validate(jobs)
	if err != nil {
		return nil, err
	}
	s := getScratch()
	defer putScratch(s)
	s.flattenAll(jobs, sys.Budget/units.Power(total), sigNeeded)
	uniformInit(s.slots, sys.Budget) // step 1
	pool := reclaim(s.slots)         // step 2
	s.topUp(pool)                    // step 3
	// Step 4's surplus stays reserved, not programmed — see the type
	// comment.
	return assemble(jobs, s.slots), nil
}
