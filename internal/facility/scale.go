// Policy scope: which jobs one policy round weighs against each other.
// Every replan runs the same pipeline (parallel.go) and the same
// apply-and-probe step, which writes only the caps that changed and
// re-probes only fresh or changed jobs; the scope decides only how the
// running set is grouped under the budget. At flat scope (ScaleAuto up to
// ScaleThreshold nodes) the whole running set is one group under the
// facility budget, as in the paper. At rack/room scope (ScaleAuto above
// the threshold, or ScaleOn) watts are negotiated down the rack/room tree
// and the policy splits each rack's grant over that rack's jobs, so
// rack-mates alone compete.
package facility

import (
	"powerstack/internal/coordinator"
	"powerstack/internal/policy"
	"powerstack/internal/telemetry"
	"powerstack/internal/units"
)

// Policy-scope selectors for Config.ScaleMode.
const (
	// ScaleAuto (the zero value) selects the flat scope up to
	// ScaleThreshold nodes and the rack/room scope above it.
	ScaleAuto = ""
	// ScaleOn selects the rack/room scope at any size.
	ScaleOn = "scale"
)

// ScaleThreshold is the node count above which ScaleAuto selects the
// rack/room scope. 4096 sits well clear of the ≤1k-node configurations
// whose results are pinned at flat scope.
const ScaleThreshold = 4096

// facilityPDUSize is the telemetry PDU fan-out the facility builds its
// hierarchy with; the replan's rack grouping mirrors it so power decisions
// follow the same physical tree telemetry aggregates over.
const facilityPDUSize = 16

// scaleActive reports whether this configuration runs the rack/room
// scope.
func (c *Config) scaleActive() bool {
	return c.ScaleMode == ScaleOn || len(c.Nodes) > ScaleThreshold
}

// planScratch is the request/topology scratch the rack/room scope reuses
// between rounds: per-job aggregate requests and each job's
// rack/room assignment.
type planScratch struct {
	reqs   []coordinator.Request
	rackOf []int
	roomOf []int
}

// planRequests assembles the per-job power requests (floor, characterized
// need, max useful) and each job's rack/room assignment into the reused
// scratch. A job belongs to the rack of its first host.
func (st *simState) planRequests(infos []policy.JobInfo) {
	sc := &st.plan
	jobs := st.mgr.Jobs()
	sc.reqs = growPlan(sc.reqs, len(infos))
	sc.rackOf = growPlan(sc.rackOf, len(infos))
	sc.roomOf = growPlan(sc.roomOf, len(infos))
	for i, info := range infos {
		var min, max, needed units.Power
		for _, h := range info.Hosts {
			min += h.Min
			max += h.Max
			if info.Fallback {
				needed += h.Max
			} else {
				needed += units.Clamp(info.Char.MonitorHostPower, h.Min, h.Max)
			}
		}
		sc.reqs[i] = coordinator.Request{JobID: info.ID, Min: min, Needed: needed, MaxUseful: max}
		sc.rackOf[i] = jobs[i].Job.Hosts[0].Node.Slot() / facilityPDUSize
		sc.roomOf[i] = sc.rackOf[i] / telemetry.PDUsPerRoom
	}
}

// growPlan returns s resized to n, reusing capacity.
func growPlan[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
