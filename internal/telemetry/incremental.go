package telemetry

// Dirty-set sampling: the hierarchy's one sample loop. Node power only
// moves when something happens to the node — a cap write, a crash or
// repair, job iterations crediting energy, a dropout window opening — and
// a caller that knows exactly when each of those happens (the facility)
// can mark leaves as events touch them. A sample then visits only the
// dirty leaves plus the interior chains above them, re-summing each
// touched interior over all of its children in child order. Everything
// else keeps its previous value. A caller that tracks nothing uses Sample,
// which marks every leaf first: the full pass is the all-dirty case of the
// same loop.
//
// The invariant that makes skipping exact rather than approximate: a leaf
// leaves the dirty set only when its sample took the normal branch and read
// zero power, and every path that adds energy to a node (probes, steady-
// state credits), changes what its sample would report (crash, repair,
// dropout-window start), or consumes a metered read (pinned MSR-read-fault
// leaves never leave the set) marks it dirty first. A clean leaf therefore
// has provably constant energy, and the power a full pass would have
// computed for it is exactly zero — the value it already holds. When a
// clean leaf is re-dirtied after skipped samples, its stored lastTime is
// stale; the sample integrates from the previous sample instant instead,
// which reproduces the full pass's ΔE/Δt bit for bit because ΔE over the
// skipped window is zero. Interior re-sums iterate all children in child
// order — the same float additions in the same order as a recursive walk —
// so every value a dirty-set pass produces is bit-identical to a full
// pass's (pinned by TestIncrementalMatchesFullSweep against a recursive
// oracle).
//
// What differs is append cadence, not values: a clean leaf (and an interior
// with no dirty descendants) does not append a sample to its Series on
// skipped samples, so its ring holds fewer (identical-valued) entries. The
// root appends every sample, keeping the facility trace unchanged.

import (
	"slices"
	"time"

	"powerstack/internal/units"
)

// incState is the dirty-set machinery behind SampleDirty. All slices are
// indexed by sweep position and reused across samples: a steady-state
// sample allocates nothing.
type incState struct {
	// lastPower holds every sweep entry's most recently computed power —
	// for skipped entries, the value a full pass would recompute.
	lastPower []units.Power
	// visit records the sample sequence number of each leaf's last visit;
	// a gap (visit+1 < seq) means the leaf was skipped while clean and its
	// integration window starts at the previous sample instant.
	visit []uint64
	// children lists each interior entry's child sweep indexes in child
	// order — the re-sum order that keeps float addition bit-identical to
	// a recursive walk.
	children [][]int
	// leafIdx maps leaf ordinals (hierarchy order, the facility's node
	// index) to sweep positions.
	leafIdx []int

	// dirtyLeaves is the queued leaf sweep positions; inDirty dedupes
	// marks; pinned entries never leave the set (leaves whose energy reads
	// consume armed fault countdowns — skipping a read would change when
	// the countdown fires).
	dirtyLeaves []int
	inDirty     []bool
	pinned      []bool

	// parents is the per-sample scratch of interior entries to re-sum.
	parents   []int
	inParents []bool

	seq      uint64
	prevTime time.Time
	haveTime bool
}

// newIncState builds the dirty set over a post-order sweep with every leaf
// dirty, so the first sample reads everything: it primes the energy
// trackers and the lastPower table.
func newIncState(sweep []sweepEntry) *incState {
	n := len(sweep)
	ic := &incState{
		lastPower: make([]units.Power, n),
		visit:     make([]uint64, n),
		children:  make([][]int, n),
		inDirty:   make([]bool, n),
		pinned:    make([]bool, n),
		inParents: make([]bool, n),
	}
	for i, e := range sweep {
		if e.parent >= 0 {
			ic.children[e.parent] = append(ic.children[e.parent], i)
		}
		if e.d.Node != nil {
			ic.leafIdx = append(ic.leafIdx, i)
		}
	}
	ic.dirtyLeaves = make([]int, 0, len(ic.leafIdx))
	ic.parents = make([]int, 0, n-len(ic.leafIdx))
	ic.markAll()
	return ic
}

// markAll queues every leaf, in ascending sweep order.
func (ic *incState) markAll() {
	ic.dirtyLeaves = ic.dirtyLeaves[:0]
	for _, li := range ic.leafIdx {
		ic.inDirty[li] = true
		ic.dirtyLeaves = append(ic.dirtyLeaves, li)
	}
}

// dirtySet returns the domain's dirty set, building the sweep on first use
// (BuildHierarchy roots already have one).
func (d *Domain) dirtySet() *incState {
	if d.inc == nil {
		d.buildSweep()
	}
	return d.inc
}

// MarkAllDirty queues every leaf for the next SampleDirty.
func (d *Domain) MarkAllDirty() { d.dirtySet().markAll() }

// MarkLeafDirty queues the leaf with the given hierarchy ordinal (its
// position in the node list BuildHierarchy was built over) for the next
// SampleDirty. Marking is idempotent and conservative: a spurious mark
// costs one leaf visit and changes no sampled value. No-op for
// out-of-range ordinals.
func (d *Domain) MarkLeafDirty(ordinal int) {
	ic := d.dirtySet()
	if ordinal < 0 || ordinal >= len(ic.leafIdx) {
		return
	}
	li := ic.leafIdx[ordinal]
	if ic.inDirty[li] {
		return
	}
	ic.inDirty[li] = true
	ic.dirtyLeaves = append(ic.dirtyLeaves, li)
}

// PinLeafDirty marks a leaf permanently dirty: it is visited on every
// sample and never returns to the clean set. The facility pins leaves whose
// nodes carry armed MSR read-fault countdowns — each energy read consumes
// countdown budget, so the read count itself is observable and must match
// a full pass's one-read-per-sample exactly.
func (d *Domain) PinLeafDirty(ordinal int) {
	ic := d.dirtySet()
	if ordinal < 0 || ordinal >= len(ic.leafIdx) {
		return
	}
	ic.pinned[ic.leafIdx[ordinal]] = true
	d.MarkLeafDirty(ordinal)
}

// SampleDirty is Sample over the dirty set, for callers that mark every
// leaf whose reading can have changed (MarkLeafDirty, PinLeafDirty): visit
// dirty leaves in ascending sweep order (deterministic no matter what
// order marks arrived), then re-sum every interior above a visited leaf
// bottom-up. Post-order sweep positions ascend from children to parents,
// so ascending order processes each dirty interior after all of its dirty
// descendants.
func (d *Domain) SampleDirty(ts time.Time) (units.Power, error) {
	ic := d.dirtySet()
	ic.seq++
	root := len(d.sweep) - 1
	slices.Sort(ic.dirtyLeaves)
	keep := ic.dirtyLeaves[:0]
	for _, li := range ic.dirtyLeaves {
		e := d.sweep[li]
		if ic.haveTime && ic.visit[li]+1 != ic.seq && e.d.primed {
			// Skipped while clean: energy was constant over the gap, so a
			// full pass's last read — zero power at the previous sample
			// instant, same energy — is reproduced by moving lastTime there.
			// Persisting it (rather than passing a one-shot override) keeps
			// the window right even when this visit takes a hold or dead
			// branch, which records no read: the next normal read then
			// integrates from the previous sample instant, exactly as a
			// full pass — which had read every sample up to the window —
			// would.
			e.d.lastTime = ic.prevTime
		}
		p, volatile := e.d.leafSample(ts)
		ic.visit[li] = ic.seq
		ic.lastPower[li] = p
		if volatile || p != 0 || ic.pinned[li] {
			// Held, dead, pinned, or drawing power: any of these can
			// change value (or must consume a read) next sample without a
			// fresh mark.
			keep = append(keep, li)
		} else {
			ic.inDirty[li] = false
		}
		for pi := e.parent; pi >= 0 && !ic.inParents[pi]; pi = d.sweep[pi].parent {
			ic.inParents[pi] = true
			ic.parents = append(ic.parents, pi)
		}
	}
	ic.dirtyLeaves = keep
	if d.Node == nil && !ic.inParents[root] {
		// An interior root appends every sample — it is the facility
		// trace.
		ic.inParents[root] = true
		ic.parents = append(ic.parents, root)
	}
	slices.Sort(ic.parents)
	for _, pi := range ic.parents {
		var sum units.Power
		for _, ci := range ic.children[pi] {
			sum += ic.lastPower[ci]
		}
		ic.lastPower[pi] = sum
		d.sweep[pi].d.series.Append(Sample{Time: ts, Power: sum})
		ic.inParents[pi] = false
	}
	ic.parents = ic.parents[:0]
	ic.prevTime = ts
	ic.haveTime = true
	return ic.lastPower[root], nil
}
