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
// Leaf reads fan out: the sorted dirty list is cut into fixed-size chunks
// that a Runner (SetFanOut) may read on several workers. A leaf read writes
// only its own Domain, its own visit/held index and its own node's
// devices (read-fault countdowns are per device), so where a chunk runs is
// unobservable. Everything order-sensitive — the dirty-set compaction, the
// parent marks, the interior re-sums and the TelemetryHold journal calls —
// stays in one serial merge in ascending leaf order, so the hold journal
// keeps leaf order at every worker count. Energy-wrap events journaled by
// the reads themselves are counted exactly, but their interleaving across
// workers is not pinned.

import (
	"slices"
	"time"

	"powerstack/internal/units"
)

// incState is the dirty-set machinery behind SampleDirty. All slices are
// indexed by sweep position and reused across samples: a steady-state
// sample allocates nothing.
type incState struct {
	// visit records the sample sequence number of each leaf's last visit;
	// a gap (visit+1 < seq) means the leaf was skipped while clean and its
	// integration window starts at the previous sample instant.
	visit []uint64
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

	// held records, per leaf, that its last read took a hold or dead
	// branch; the merge journals it and keeps the leaf dirty.
	held []bool

	// run fans chunks of chunk dirty leaves out (inline until SetFanOut);
	// readChunk is the chunk task, built once with the sweep so a sample
	// allocates nothing, and ts the instant the current sample reads at.
	run       Runner
	chunk     int
	readChunk func(task, worker int)
	ts        time.Time

	seq      uint64
	prevTime time.Time
	haveTime bool
}

// Runner runs fn(task, worker) for every task in [0, n) and returns once
// all have finished. worker is dense in the runner's worker count, and a
// runner with one worker runs every task inline on the caller's goroutine.
type Runner func(n int, fn func(task, worker int))

// LeafChunk is how many dirty leaves one fan-out task reads.
const LeafChunk = 512

// inline is the Runner of a hierarchy without a fan-out: every task on the
// caller's goroutine, in order.
func inline(n int, fn func(task, worker int)) {
	for i := 0; i < n; i++ {
		fn(i, 0)
	}
}

// newIncState builds the dirty set over a post-order sweep with every leaf
// dirty, so the first sample reads everything: it primes the energy
// trackers and every domain's power.
func newIncState(sweep []sweepEntry) *incState {
	n := len(sweep)
	ic := &incState{
		visit:     make([]uint64, n),
		inDirty:   make([]bool, n),
		pinned:    make([]bool, n),
		inParents: make([]bool, n),
		held:      make([]bool, n),
		run:       inline,
		chunk:     LeafChunk,
	}
	for i, e := range sweep {
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

// SetFanOut makes SampleDirty read its dirty leaves in tasks of chunk
// leaves (LeafChunk when chunk <= 0) through run. The values SampleDirty
// produces do not depend on either.
func (d *Domain) SetFanOut(run Runner, chunk int) {
	ic := d.dirtySet()
	if chunk <= 0 {
		chunk = LeafChunk
	}
	ic.run, ic.chunk = run, chunk
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
// leaf whose reading can have changed (MarkLeafDirty, PinLeafDirty): read
// the dirty leaves (in chunks, possibly on several workers), then merge in
// ascending sweep order — deterministic no matter what order marks arrived
// — and re-sum every interior above a visited leaf bottom-up. Post-order
// sweep positions ascend from children to parents, so ascending order
// processes each dirty interior after all of its dirty descendants.
func (d *Domain) SampleDirty(ts time.Time) units.Power {
	ic := d.dirtySet()
	ic.seq++
	ic.ts = ts
	slices.Sort(ic.dirtyLeaves)
	ic.run((len(ic.dirtyLeaves)+ic.chunk-1)/ic.chunk, ic.readChunk)
	keep := ic.dirtyLeaves[:0]
	for _, li := range ic.dirtyLeaves {
		e := d.sweep[li]
		if ic.held[li] {
			e.d.sink.TelemetryHold(e.d.Name, e.d.power.Watts())
		}
		if ic.held[li] || e.d.power != 0 || ic.pinned[li] {
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
	slices.Sort(ic.parents)
	for _, pi := range ic.parents {
		p := d.sweep[pi].d
		var sum units.Power
		for _, c := range p.Children {
			sum += c.power
		}
		p.power = sum
		ic.inParents[pi] = false
	}
	ic.parents = ic.parents[:0]
	ic.prevTime = ts
	ic.haveTime = true
	return d.power
}

// readLeaves reads chunk c of the sorted dirty list at the current
// sample's instant. It writes only the chunk's own leaves and their
// entries in visit and held, so chunks may run concurrently.
func (d *Domain) readLeaves(c int) {
	ic := d.inc
	lo := c * ic.chunk
	for _, li := range ic.dirtyLeaves[lo:min(lo+ic.chunk, len(ic.dirtyLeaves))] {
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
		ic.held[li] = e.d.leafSample(ic.ts)
		ic.visit[li] = ic.seq
	}
}
