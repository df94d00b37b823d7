// Package telemetry implements the machine-room monitoring half of a
// site's power management: periodic sampling of node power (each domain
// keeps its latest reading), aggregation up a PDU/row/facility hierarchy,
// and a budget watchdog that detects violations of the system power limit
// and clamps offenders — the enforcement loop that backs a resource manager's
// promises to the facility (the role SLURM's power monitoring thread plays
// in the paper's Section VII-C discussion).
package telemetry

import (
	"errors"
	"fmt"
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

// Domain is one level of the power-delivery hierarchy (facility, row, PDU,
// node). Leaves read nodes; interior domains aggregate children.
type Domain struct {
	Name     string
	Node     *node.Node // non-nil for leaves
	Children []*Domain

	// power is the domain's most recently sampled power. A domain the
	// dirty-set pass skips keeps its value, which is the one a full pass
	// would recompute.
	power units.Power
	// lastEnergy supports power-from-energy sampling on leaves.
	lastEnergy units.Energy
	lastTime   time.Time
	primed     bool

	// faults and start drive injected sample dropouts (SetFaultPlan);
	// sink journals hold decisions. Both are nil-safe and leaf-local.
	faults *fault.Plan
	start  time.Time
	sink   *obs.Sink

	// byName indexes every domain under this one (including itself) for
	// O(1) Find lookups; BuildHierarchy populates it on the root.
	byName map[string]*Domain
	// sweep is the post-order traversal of the subtree (children before
	// parents, in child order), with each entry recording its parent's
	// sweep position; inc is the dirty-set state indexed by it
	// (incremental.go). BuildHierarchy builds both on the root; any other
	// domain builds them on its first Sample.
	sweep []sweepEntry
	inc   *incState
}

// sweepEntry is one domain in a root's post-order sample sweep.
type sweepEntry struct {
	d      *Domain
	parent int // sweep index of the parent; -1 for the root
}

// NewNodeDomain builds a leaf domain for a node.
func NewNodeDomain(n *node.Node) (*Domain, error) {
	if n == nil {
		return nil, errors.New("telemetry: nil node")
	}
	return &Domain{Name: n.ID, Node: n}, nil
}

// NewAggregateDomain builds an interior domain over children.
func NewAggregateDomain(name string, children ...*Domain) (*Domain, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("telemetry: domain %s has no children", name)
	}
	return &Domain{Name: name, Children: children}, nil
}

// RoomThreshold is the PDU count above which BuildHierarchy inserts a room
// tier between the PDUs and the facility root. At the default 16-node PDUs
// the tier appears from 2048 nodes up, comfortably above the ≤1k-node range
// whose tree shape (and hence aggregation float order) is pinned
// byte-identical to the two-level original.
const RoomThreshold = 128

// PDUsPerRoom is how many PDUs each room aggregates when the room tier is
// present (64 PDUs × 16 nodes = 1024 nodes per room).
const PDUsPerRoom = 64

// BuildHierarchy arranges nodes under PDUs of pduSize nodes each, under a
// single facility root — the Dynamo-style capping tree of Section VII-C.
// Above RoomThreshold PDUs a room tier is inserted so no domain's fan-out
// grows linearly with the machine. The returned root carries a name index
// (Find is O(1) on it) and a flat sample sweep with its dirty set.
func BuildHierarchy(nodes []*node.Node, pduSize int) (*Domain, error) {
	if len(nodes) == 0 {
		return nil, errors.New("telemetry: no nodes")
	}
	if pduSize <= 0 {
		return nil, errors.New("telemetry: pdu size must be positive")
	}
	var pdus []*Domain
	for i := 0; i < len(nodes); i += pduSize {
		end := i + pduSize
		if end > len(nodes) {
			end = len(nodes)
		}
		var leaves []*Domain
		for _, n := range nodes[i:end] {
			leaf, err := NewNodeDomain(n)
			if err != nil {
				return nil, err
			}
			leaves = append(leaves, leaf)
		}
		pdu, err := NewAggregateDomain(fmt.Sprintf("pdu%03d", len(pdus)), leaves...)
		if err != nil {
			return nil, err
		}
		pdus = append(pdus, pdu)
	}
	tier := pdus
	if len(pdus) > RoomThreshold {
		var rooms []*Domain
		for i := 0; i < len(pdus); i += PDUsPerRoom {
			end := i + PDUsPerRoom
			if end > len(pdus) {
				end = len(pdus)
			}
			room, err := NewAggregateDomain(fmt.Sprintf("room%02d", len(rooms)), pdus[i:end]...)
			if err != nil {
				return nil, err
			}
			rooms = append(rooms, room)
		}
		tier = rooms
	}
	root, err := NewAggregateDomain("facility", tier...)
	if err != nil {
		return nil, err
	}
	root.buildIndex()
	root.buildSweep()
	return root, nil
}

// buildIndex populates the root's name index.
func (d *Domain) buildIndex() {
	d.byName = make(map[string]*Domain)
	var walk func(c *Domain)
	walk = func(c *Domain) {
		d.byName[c.Name] = c
		for _, ch := range c.Children {
			walk(ch)
		}
	}
	walk(d)
}

// buildSweep flattens the subtree into its post-order sample sweep and
// allocates the dirty set over it, every leaf dirty.
func (d *Domain) buildSweep() {
	d.sweep = d.sweep[:0]
	var walk func(c *Domain) int
	walk = func(c *Domain) int {
		kids := make([]int, len(c.Children))
		for i, ch := range c.Children {
			kids[i] = walk(ch)
		}
		idx := len(d.sweep)
		d.sweep = append(d.sweep, sweepEntry{d: c, parent: -1})
		for _, k := range kids {
			d.sweep[k].parent = idx
		}
		return idx
	}
	walk(d)
	d.inc = newIncState(d.sweep)
	d.inc.readChunk = func(c, _ int) { d.readLeaves(c) }
}

// SetFaultPlan arms injected telemetry dropouts on every leaf under d:
// a leaf whose sample falls inside one of the plan's dropout windows holds
// its last value instead of reading the node. The start time anchors the
// plan's relative onsets; sink (nil-safe) journals each held sample.
func (d *Domain) SetFaultPlan(p *fault.Plan, start time.Time, sink *obs.Sink) {
	for _, leaf := range d.Leaves() {
		leaf.faults = p
		leaf.start = start
		leaf.sink = sink
	}
}

// Sample reads power at time ts throughout the hierarchy: leaves derive
// power from RAPL energy deltas, interior domains sum their children.
// Returns the domain's power at this sample. Sample reads every leaf — it
// marks the whole tree dirty and runs the dirty-set pass (SampleDirty) —
// so it is the entry point for callers that do not track which nodes
// changed.
//
// A leaf degrades instead of failing: during an injected dropout window it
// holds its last sampled power, and when the node's energy counter cannot
// be read (the node is down) it reports zero draw and re-primes on
// recovery. Both substitutions are journaled as TelemetryHold events.
func (d *Domain) Sample(ts time.Time) units.Power {
	d.MarkAllDirty()
	return d.SampleDirty(ts)
}

// leafSample reads one leaf's power at ts into d.power, integrating
// energy since the leaf's lastTime. It reports a hold: the sample took a
// dropout-hold (d.power keeps its value) or dead-node branch, whose value
// can change next sample without any new energy flowing, so the dirty-set
// pass must revisit the leaf — and journals it as a TelemetryHold in its
// serial merge. leafSample touches only d and its node, so distinct leaves
// may be read concurrently.
func (d *Domain) leafSample(ts time.Time) (held bool) {
	if d.faults.DropoutActive(d.Name, ts.Sub(d.start)) {
		return true
	}
	e, err := d.Node.Energy()
	if err != nil {
		// Dead node: no energy flows that we can meter. Report zero
		// and forget the priming state so the first post-repair
		// sample re-primes rather than integrating across the
		// outage.
		d.primed = false
		d.power = 0
		return true
	}
	d.power = 0
	if d.primed {
		d.power = units.MeanPower(e-d.lastEnergy, ts.Sub(d.lastTime))
	}
	d.lastEnergy = e
	d.lastTime = ts
	d.primed = true
	return false
}

// Power returns the domain's most recently sampled power (zero before the
// first sample).
func (d *Domain) Power() units.Power { return d.power }

// Find locates a descendant domain by name (including d itself). On a
// BuildHierarchy root the lookup is a map hit; elsewhere it walks the
// subtree.
func (d *Domain) Find(name string) *Domain {
	if d.byName != nil {
		return d.byName[name]
	}
	if d.Name == name {
		return d
	}
	for _, c := range d.Children {
		if got := c.Find(name); got != nil {
			return got
		}
	}
	return nil
}

// Leaves returns the node domains under d, in hierarchy order.
func (d *Domain) Leaves() []*Domain {
	if d.Node != nil {
		return []*Domain{d}
	}
	var out []*Domain
	for _, c := range d.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// TopConsumers returns the k leaves with the highest latest power, sorted
// descending — the watchdog's clamping order. k is clamped to [0, leaves]:
// a negative k returns nothing rather than panicking.
func (d *Domain) TopConsumers(k int) []*Domain {
	leaves := d.Leaves()
	sort.SliceStable(leaves, func(a, b int) bool {
		return leaves[a].power > leaves[b].power
	})
	if k < 0 {
		k = 0
	}
	if k > len(leaves) {
		k = len(leaves)
	}
	return leaves[:k]
}
