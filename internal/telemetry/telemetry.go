// Package telemetry implements the machine-room monitoring half of a
// site's power management: periodic sampling of node power, aggregation up
// a PDU/room/facility hierarchy, and a budget watchdog that detects
// violations of the system power limit and clamps offenders — the
// enforcement loop that backs a resource manager's promises to the facility
// (the role SLURM's power monitoring thread plays in the paper's Section
// VII-C discussion).
//
// The hierarchy is flat and indexed by node ordinal (the node's position in
// the list it was built over): per-leaf state lives in slices, and each
// interior tier keeps its latest power in one slice. PDU p sums leaves
// [p·pduSize, (p+1)·pduSize), room r sums PDUs [r·PDUsPerRoom,
// (r+1)·PDUsPerRoom), and the root sums the top tier, each in child order.
package telemetry

import (
	"errors"
	"slices"
	"sort"
	"time"

	"powerstack/internal/fault"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/units"
)

// Sample is one timestamped power reading.
type Sample struct {
	Time  time.Time
	Power units.Power
}

// rootName names the hierarchy's root in watchdog observations.
const rootName = "facility"

// RoomThreshold is the PDU count above which BuildHierarchy inserts a room
// tier between the PDUs and the facility root. At the default 16-node PDUs
// the tier appears from 2048 nodes up, comfortably above the ≤1k-node range
// whose tree shape (and hence aggregation float order) is pinned
// byte-identical to the two-level original.
const RoomThreshold = 128

// PDUsPerRoom is how many PDUs each room aggregates when the room tier is
// present (64 PDUs × 16 nodes = 1024 nodes per room).
const PDUsPerRoom = 64

// Hierarchy is the power-delivery tree over a node list. Every tier holds
// its most recently sampled power; a tier entry the dirty-set pass skips
// keeps its value, which is the one a full pass would recompute.
type Hierarchy struct {
	nodes   []*node.Node
	pduSize int

	// Per leaf, by ordinal: latest power and the energy tracker behind it.
	power      []units.Power
	lastEnergy []units.Energy
	lastTime   []time.Time
	primed     []bool

	// pdu and room (nil without the room tier) hold the interior tiers'
	// power; total is the root's.
	pdu, room []units.Power
	total     units.Power

	// dropouts holds each leaf's injected dropout windows by ordinal,
	// relative to start (SetFaultPlan); nil when the plan has none, so an
	// unfaulted hierarchy pays nothing. sink (nil-safe) journals hold
	// decisions.
	dropouts [][]fault.Window
	start    time.Time
	sink     *obs.Sink

	dirtyState
}

// BuildHierarchy arranges nodes under PDUs of pduSize nodes each, under a
// single facility root — the Dynamo-style capping tree of Section VII-C.
// Above RoomThreshold PDUs a room tier is inserted so no entry's fan-out
// grows linearly with the machine. Every leaf starts dirty, so the first
// sample reads everything.
func BuildHierarchy(nodes []*node.Node, pduSize int) (*Hierarchy, error) {
	if len(nodes) == 0 {
		return nil, errors.New("telemetry: no nodes")
	}
	if pduSize <= 0 {
		return nil, errors.New("telemetry: pdu size must be positive")
	}
	for _, n := range nodes {
		if n == nil {
			return nil, errors.New("telemetry: nil node")
		}
	}
	n := len(nodes)
	h := &Hierarchy{
		nodes:      slices.Clone(nodes),
		pduSize:    pduSize,
		power:      make([]units.Power, n),
		lastEnergy: make([]units.Energy, n),
		lastTime:   make([]time.Time, n),
		primed:     make([]bool, n),
		pdu:        make([]units.Power, (n+pduSize-1)/pduSize),
	}
	if len(h.pdu) > RoomThreshold {
		h.room = make([]units.Power, (len(h.pdu)+PDUsPerRoom-1)/PDUsPerRoom)
	}
	h.initDirty(n)
	return h, nil
}

// SetFaultPlan arms injected telemetry dropouts on every leaf: a leaf whose
// sample falls inside one of the plan's dropout windows holds its last
// value instead of reading the node. The start time anchors the plan's
// relative onsets; sink (nil-safe) journals each held sample.
func (h *Hierarchy) SetFaultPlan(p *fault.Plan, start time.Time, sink *obs.Sink) {
	h.start, h.sink = start, sink
	h.dropouts = nil
	byNode := p.DropoutWindows()
	if len(byNode) == 0 {
		return
	}
	h.dropouts = make([][]fault.Window, len(h.nodes))
	for i, n := range h.nodes {
		h.dropouts[i] = byNode[n.ID]
	}
}

// droppedOut reports whether leaf i's sample at ts falls inside one of its
// dropout windows.
func (h *Hierarchy) droppedOut(i int, ts time.Time) bool {
	if h.dropouts == nil {
		return false
	}
	for _, w := range h.dropouts[i] {
		if w.Contains(ts.Sub(h.start)) {
			return true
		}
	}
	return false
}

// Sample reads power at time ts throughout the hierarchy: leaves derive
// power from RAPL energy deltas, interior tiers sum their children.
// Returns the root's power at this sample. Sample reads every leaf — it
// marks every leaf dirty and runs the dirty-set pass (SampleDirty) — so it
// is the entry point for callers that do not track which nodes changed.
//
// A leaf degrades instead of failing: during an injected dropout window it
// holds its last sampled power, and when the node's energy counter cannot
// be read (the node is down) it reports zero draw and re-primes on
// recovery. Both substitutions are journaled as TelemetryHold events.
func (h *Hierarchy) Sample(ts time.Time) units.Power {
	h.MarkAllDirty()
	return h.SampleDirty(ts)
}

// leafSample reads leaf i's power at ts, integrating energy since its
// lastTime. It reports a hold: the sample took a dropout-hold (the power
// keeps its value) or dead-node branch, whose value can change next sample
// without any new energy flowing, so the dirty-set pass must revisit the
// leaf — and journals it as a TelemetryHold in its serial merge.
// leafSample touches only leaf i's entries and its node, so distinct leaves
// may be read concurrently.
func (h *Hierarchy) leafSample(i int, ts time.Time) (held bool) {
	if h.droppedOut(i, ts) {
		return true
	}
	e, err := h.nodes[i].Energy()
	if err != nil {
		// Dead node: no energy flows that we can meter. Report zero
		// and forget the priming state so the first post-repair
		// sample re-primes rather than integrating across the
		// outage.
		h.primed[i] = false
		h.power[i] = 0
		return true
	}
	h.power[i] = 0
	if h.primed[i] {
		h.power[i] = units.MeanPower(e-h.lastEnergy[i], ts.Sub(h.lastTime[i]))
	}
	h.lastEnergy[i] = e
	h.lastTime[i] = ts
	h.primed[i] = true
	return false
}

// Power returns the root's most recently sampled power (zero before the
// first sample).
func (h *Hierarchy) Power() units.Power { return h.total }

// TopConsumers returns the ordinals of the k leaves with the highest latest
// power, sorted descending with ties in ordinal order — the watchdog's
// clamping order. k is clamped to [0, leaves]: a negative k returns nothing
// rather than panicking.
func (h *Hierarchy) TopConsumers(k int) []int {
	ord := make([]int, len(h.nodes))
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(a, b int) bool {
		return h.power[ord[a]] > h.power[ord[b]]
	})
	return ord[:max(0, min(k, len(ord)))]
}
