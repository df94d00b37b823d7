// Package coordinator implements the paper's proposed future work: an
// execution-time protocol that coordinates the system-level objectives of a
// resource manager with the workload-level objectives of per-job runtimes,
// replacing the offline pre-characterization the paper used to emulate the
// feedback loop ("Since there is not currently an existing protocol or
// central mechanism for coordinating power management decisions ... we
// emulated this execution time behavior by pre-characterizing our
// workloads", Section VIII).
//
// The protocol is a two-message exchange per control interval:
//
//	job runtime  --Request--> resource manager     (needed / min / max-useful power)
//	job runtime <--Grant----- resource manager     (renegotiated job budget)
//
// Each job runtime is a GEOPM controller (internal/geopm) driving a power
// balancer; between iterations it derives its Request from the controller's
// latest sample: the balancer's converging per-host limits and observed
// power. The resource manager reallocates the system budget across jobs
// MixedAdaptive-style: grant every job what it needs, scale proportionally
// under deficit, and steer surplus to jobs that can still convert power
// into speed. No prior knowledge of any workload is required.
package coordinator

import (
	"time"

	"powerstack/internal/geopm"
	"powerstack/internal/units"
)

// Request is the job runtime's upward report: the power its hosts need to
// hold the current critical path, the floor it can be squeezed to, and the
// most power it could convert into performance.
type Request struct {
	JobID string
	// Needed is the sum over hosts of the runtime's current needed-power
	// estimate.
	Needed units.Power
	// Min is the sum of the hosts' minimum settable limits.
	Min units.Power
	// MaxUseful is the most power the job could productively consume:
	// critical hosts up to their ceiling, waiting hosts at their need.
	MaxUseful units.Power
}

// Grant is the resource manager's downward response: the job's budget for
// the next control interval.
type Grant struct {
	JobID  string
	Budget units.Power
}

// Runtime is one job's runtime endpoint of the protocol: a GEOPM controller
// driving the job's power balancer, whose Budget is the job's grant.
type Runtime struct {
	*geopm.Controller
}

// request derives the upward report from the latest sample: a host the
// balancer has cut needs its limit; an uncut host needs what it draws, and
// could use up to its ceiling if it sits on the critical path.
func (rt *Runtime) request() Request {
	req := Request{JobID: rt.Job.ID}
	s := rt.LastSample()
	var tMax time.Duration
	for _, h := range s.Hosts {
		if h.WorkTime > tMax {
			tMax = h.WorkTime
		}
	}
	for _, h := range s.Hosts {
		req.Min += h.MinLimit
		needed := h.Limit
		if h.Power < needed {
			needed = h.Power
		}
		if needed < h.MinLimit {
			needed = h.MinLimit
		}
		req.Needed += needed
		// Hosts within the critical slack band can convert more power
		// into speed; others are pinned at their need.
		slack := 1.0
		if tMax > 0 {
			slack = float64(tMax-h.WorkTime) / float64(tMax)
		}
		if slack <= geopm.DefaultSlackEpsilon {
			req.MaxUseful += h.MaxLimit
		} else {
			req.MaxUseful += needed
		}
	}
	return req
}

// regrant applies a renegotiated budget.
func (rt *Runtime) regrant(g Grant, round int) {
	rt.Budget = g.Budget
	rt.Obs.Regrant(g.JobID, round, g.Budget.Watts())
}
