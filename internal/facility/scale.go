// Scale mode: the 100k-node path. Above a node-count threshold (or on
// request) the facility switches two hot paths from exact-but-flat to
// hierarchical-and-flat-memory: the policy replan negotiates watts down the
// rack/room tree instead of over every job at once (the room pipeline in
// parallel.go, at every Parallelism), and caps are rewritten only where
// they changed and only the jobs whose caps moved are re-probed. Below the
// threshold none of this engages, so small runs stay byte-identical to the
// flat core — pinned by the frozen Result digests.
package facility

import (
	"powerstack/internal/coordinator"
	"powerstack/internal/policy"
	"powerstack/internal/telemetry"
	"powerstack/internal/units"
)

// Scale-mode selectors for Config.ScaleMode.
const (
	// ScaleAuto (the zero value) engages the hierarchical machinery only
	// above ScaleThreshold nodes.
	ScaleAuto = ""
	// ScaleOn forces the hierarchical machinery at any size.
	ScaleOn = "scale"
)

// ScaleThreshold is the node count above which ScaleAuto switches to the
// hierarchical paths. 4096 sits well clear of the ≤1k-node configurations
// whose behavior is pinned byte-identical to the flat core.
const ScaleThreshold = 4096

// facilityPDUSize is the telemetry PDU fan-out the facility builds its
// hierarchy with; the replan's rack grouping mirrors it so power decisions
// follow the same physical tree telemetry aggregates over.
const facilityPDUSize = 16

// scaleActive reports whether this configuration runs the hierarchical
// paths.
func (c *Config) scaleActive() bool {
	return c.ScaleMode == ScaleOn || len(c.Nodes) > ScaleThreshold
}

// planScratch is the request/topology scratch the hierarchical replan
// reuses between rounds: per-job aggregate requests and each job's
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
