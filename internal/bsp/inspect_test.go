package bsp

import "powerstack/internal/units"

// CriticalHosts returns the number of critical hosts.
func (j *Job) CriticalHosts() int {
	n := 0
	for _, h := range j.Hosts {
		if h.Role == Critical {
			n++
		}
	}
	return n
}

// CurrentPhaseIndex returns the schedule segment the next iteration will
// execute (0 for single-phase jobs).
func (j *Job) CurrentPhaseIndex() int {
	if len(j.schedule) == 0 {
		return 0
	}
	idx, _ := j.segmentAt(j.iterCount)
	return idx
}

// MeanHostPower returns the average per-host power over the iteration.
func (r IterationResult) MeanHostPower() units.Power {
	if len(r.PerHost) == 0 || r.Elapsed <= 0 {
		return 0
	}
	return units.MeanPower(r.TotalEnergy, r.Elapsed) / units.Power(len(r.PerHost))
}
