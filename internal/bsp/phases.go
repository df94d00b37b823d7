package bsp

import (
	"errors"
	"fmt"

	"powerstack/internal/kernel"
)

// The paper's future work includes "extending this study to account for
// applications with multiple phases that have varying design
// characteristics" (Section VIII). A phase schedule turns a job into such
// an application: the kernel configuration — and with it the waiting-rank
// layout and the critical path — changes as the run progresses, so any
// power controller built on a single pre-characterization is chasing a
// moving target. This is precisely the scenario the power balancer's
// headroom guard (MinPowerFraction) protects: a host de-prioritized in one
// phase may gate the critical path in the next.

// PhaseSegment is one contiguous stretch of iterations with a fixed kernel
// configuration.
type PhaseSegment struct {
	Config kernel.Config
	// Iterations is the segment length; the schedule cycles when the run
	// outlives it.
	Iterations int
}

// SetSchedule attaches a phase schedule to the job. It must be called
// before the first iteration; the job's current config must equal the
// first segment's config (use NewJob with schedule[0].Config).
func (j *Job) SetSchedule(schedule []PhaseSegment) error {
	if len(schedule) == 0 {
		return errors.New("bsp: empty phase schedule")
	}
	for i, seg := range schedule {
		if err := seg.Config.Validate(); err != nil {
			return fmt.Errorf("bsp: schedule segment %d: %w", i, err)
		}
		if seg.Iterations <= 0 {
			return fmt.Errorf("bsp: schedule segment %d has %d iterations", i, seg.Iterations)
		}
	}
	if schedule[0].Config != j.Config {
		return errors.New("bsp: schedule must start with the job's current config")
	}
	j.schedule = schedule
	j.iterCount = 0
	return nil
}

// segmentAt maps an iteration counter to a schedule segment, cycling.
func (j *Job) segmentAt(iter int) (int, PhaseSegment) {
	total := 0
	for _, seg := range j.schedule {
		total += seg.Iterations
	}
	k := iter % total
	for i, seg := range j.schedule {
		if k < seg.Iterations {
			return i, seg
		}
		k -= seg.Iterations
	}
	return 0, j.schedule[0]
}

// advancePhase switches the job's configuration when the schedule says so,
// re-assigning host roles. Returns true when the phase changed.
func (j *Job) advancePhase() bool {
	if len(j.schedule) == 0 {
		j.iterCount++
		return false
	}
	_, seg := j.segmentAt(j.iterCount)
	j.iterCount++
	if seg.Config == j.Config {
		return false
	}
	j.setConfig(seg.Config)
	return true
}

// setConfig swaps the active kernel configuration and re-lays-out roles
// (the waiting-host tail length follows the new waiting fraction).
func (j *Job) setConfig(cfg kernel.Config) {
	j.Config = cfg
	nWaiting := WaitingHosts(cfg, len(j.Hosts))
	for i := range j.Hosts {
		if i >= len(j.Hosts)-nWaiting {
			j.Hosts[i].Role = Waiting
		} else {
			j.Hosts[i].Role = Critical
		}
	}
}
