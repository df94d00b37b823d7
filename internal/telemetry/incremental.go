package telemetry

// Dirty-set sampling: the hierarchy's one sample loop. Node power only
// moves when something happens to the node — a cap write, a crash or
// repair, job iterations crediting energy, a dropout window opening — and
// a caller that knows exactly when each of those happens (the facility)
// can mark leaves as events touch them. A sample then visits only the
// dirty leaves plus the PDUs, rooms and root above them, re-summing each
// touched entry over all of its children in child order. Everything else
// keeps its previous value. A caller that tracks nothing uses Sample,
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
// skipped window is zero. Tier re-sums iterate all children in child
// order — the same float additions in the same order as a full pass — so
// every value a dirty-set pass produces is bit-identical to a full pass's
// (pinned by TestIncrementalMatchesFullSweep against a reference full pass
// written in the tests).
//
// Leaf reads fan out: the sorted dirty list is cut into fixed-size chunks
// that a Runner (SetFanOut) may read on several workers. A leaf read writes
// only its own ordinal's entries and its own node's devices (read-fault
// countdowns are per device), so where a chunk runs is unobservable.
// Everything order-sensitive — the dirty-set compaction, the tier re-sums
// and the TelemetryHold journal calls — stays in one serial merge in
// ascending leaf order, so the hold journal keeps leaf order at every
// worker count. Energy-wrap events journaled by the reads themselves are
// counted exactly, but their interleaving across workers is not pinned.

import (
	"fmt"
	"slices"
	"time"

	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/units"
)

// dirtyState is the dirty-set machinery behind SampleDirty. Per-leaf
// slices are indexed by ordinal and, like the tier scratch, reused across
// samples: a steady-state sample allocates nothing.
type dirtyState struct {
	// visit records the sample sequence number of each leaf's last visit;
	// a gap (visit+1 < seq) means the leaf was skipped while clean and its
	// integration window starts at the previous sample instant.
	visit []uint64

	// dirty is the queued leaf ordinals; inDirty dedupes marks; pinned
	// entries never leave the set (leaves whose energy reads consume armed
	// fault countdowns — skipping a read would change when the countdown
	// fires).
	dirty   []int
	inDirty []bool
	pinned  []bool

	// held records, per leaf, that its last read took a hold or dead
	// branch; the merge journals it and keeps the leaf dirty.
	held []bool

	// pdus and rooms are the per-sample scratch of tier entries to re-sum,
	// ascending and without repeats.
	pdus, rooms []int

	// run fans chunks of chunk dirty leaves out (inline until SetFanOut);
	// readChunk is the chunk task, built once so a sample allocates
	// nothing, and ts the instant the current sample reads at.
	run       Runner
	chunk     int
	readChunk func(task, worker int)
	ts        time.Time

	seq      uint64
	prevTime time.Time
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

// initDirty allocates the dirty set over n leaves, every leaf dirty.
func (h *Hierarchy) initDirty(n int) {
	h.dirtyState = dirtyState{
		visit:   make([]uint64, n),
		dirty:   make([]int, 0, n),
		inDirty: make([]bool, n),
		pinned:  make([]bool, n),
		held:    make([]bool, n),
		pdus:    make([]int, 0, len(h.pdu)),
		rooms:   make([]int, 0, len(h.room)),
		run:     inline,
		chunk:   LeafChunk,
	}
	h.readChunk = func(c, _ int) { h.readLeaves(c) }
	h.MarkAllDirty()
}

// SetFanOut makes SampleDirty read its dirty leaves in tasks of chunk
// leaves (LeafChunk when chunk <= 0) through run. The values SampleDirty
// produces do not depend on either.
func (h *Hierarchy) SetFanOut(run Runner, chunk int) {
	if chunk <= 0 {
		chunk = LeafChunk
	}
	h.run, h.chunk = run, chunk
}

// MarkAllDirty queues every leaf for the next SampleDirty.
func (h *Hierarchy) MarkAllDirty() {
	h.dirty = h.dirty[:0]
	for i := range h.inDirty {
		h.inDirty[i] = true
		h.dirty = append(h.dirty, i)
	}
}

// MarkLeafDirty queues the leaf with the given ordinal (its position in the
// node list BuildHierarchy was built over) for the next SampleDirty.
// Marking is idempotent and conservative: a spurious mark costs one leaf
// visit and changes no sampled value. No-op for out-of-range ordinals.
func (h *Hierarchy) MarkLeafDirty(ordinal int) {
	if ordinal < 0 || ordinal >= len(h.inDirty) || h.inDirty[ordinal] {
		return
	}
	h.inDirty[ordinal] = true
	h.dirty = append(h.dirty, ordinal)
}

// PinLeafDirty marks a leaf permanently dirty: it is visited on every
// sample and never returns to the clean set. The facility pins leaves whose
// nodes carry armed MSR read-fault countdowns — each energy read consumes
// countdown budget, so the read count itself is observable and must match
// a full pass's one-read-per-sample exactly.
func (h *Hierarchy) PinLeafDirty(ordinal int) {
	if ordinal < 0 || ordinal >= len(h.pinned) {
		return
	}
	h.pinned[ordinal] = true
	h.MarkLeafDirty(ordinal)
}

// SampleDirty is Sample over the dirty set, for callers that mark every
// leaf whose reading can have changed (MarkLeafDirty, PinLeafDirty): read
// the dirty leaves (in chunks, possibly on several workers), then merge in
// ascending ordinal order — deterministic no matter what order marks
// arrived — and re-sum the PDUs, rooms and root above the visited leaves,
// each tier after the one below it.
func (h *Hierarchy) SampleDirty(ts time.Time) units.Power {
	h.seq++
	h.ts = ts
	slices.Sort(h.dirty)
	h.run((len(h.dirty)+h.chunk-1)/h.chunk, h.readChunk)
	keep := h.dirty[:0]
	for _, i := range h.dirty {
		if h.held[i] {
			h.sink.TelemetryHold(h.nodes[i].ID, h.power[i].Watts())
		}
		if h.held[i] || h.power[i] != 0 || h.pinned[i] {
			// Held, dead, pinned, or drawing power: any of these can
			// change value (or must consume a read) next sample without a
			// fresh mark.
			keep = append(keep, i)
		} else {
			h.inDirty[i] = false
		}
		h.pdus = appendNew(h.pdus, i/h.pduSize)
	}
	h.dirty = keep
	for _, p := range h.pdus {
		h.pdu[p] = sum(h.power, p, h.pduSize)
		if h.room != nil {
			h.rooms = appendNew(h.rooms, p/PDUsPerRoom)
		}
	}
	for _, r := range h.rooms {
		h.room[r] = sum(h.pdu, r, PDUsPerRoom)
	}
	if len(h.pdus) > 0 {
		top := h.pdu
		if h.room != nil {
			top = h.room
		}
		h.total = sum(top, 0, len(top))
	}
	h.pdus, h.rooms = h.pdus[:0], h.rooms[:0]
	h.prevTime = ts
	return h.total
}

// appendNew appends v to the nondecreasing list s unless it is already its
// last entry.
func appendNew(s []int, v int) []int {
	if len(s) > 0 && s[len(s)-1] == v {
		return s
	}
	return append(s, v)
}

// sum adds child powers [g·size, (g+1)·size) of group g in child order.
func sum(child []units.Power, g, size int) units.Power {
	var s units.Power
	for _, p := range child[g*size : min((g+1)*size, len(child))] {
		s += p
	}
	return s
}

// readLeaves reads chunk c of the sorted dirty list at the current
// sample's instant. It writes only the chunk's own leaves' entries, so
// chunks may run concurrently.
func (h *Hierarchy) readLeaves(c int) {
	lo := c * h.chunk
	for _, i := range h.dirty[lo:min(lo+h.chunk, len(h.dirty))] {
		if h.visit[i]+1 != h.seq && h.primed[i] {
			// Skipped while clean: energy was constant over the gap, so a
			// full pass's last read — zero power at the previous sample
			// instant, same energy — is reproduced by moving lastTime there.
			// Persisting it (rather than passing a one-shot override) keeps
			// the window right even when this visit takes a hold or dead
			// branch, which records no read: the next normal read then
			// integrates from the previous sample instant, exactly as a
			// full pass — which had read every sample up to the window —
			// would.
			h.lastTime[i] = h.prevTime
		}
		h.held[i] = h.leafSample(i, h.ts)
		h.visit[i] = h.seq
	}
}

// Clone returns an independent copy of the hierarchy over nodes, a same-ID
// copy of its node list in the same order: every tier's power, the leaves'
// energy trackers, the dirty set and the dropout windows carry over, and
// sink journals the copy's holds. The copy reads its leaves inline until
// SetFanOut.
func (h *Hierarchy) Clone(nodes []*node.Node, sink *obs.Sink) (*Hierarchy, error) {
	if len(nodes) != len(h.nodes) {
		return nil, fmt.Errorf("telemetry: cannot clone a %d-leaf hierarchy onto %d nodes", len(h.nodes), len(nodes))
	}
	c := &Hierarchy{
		nodes:      slices.Clone(nodes),
		pduSize:    h.pduSize,
		power:      slices.Clone(h.power),
		lastEnergy: slices.Clone(h.lastEnergy),
		lastTime:   slices.Clone(h.lastTime),
		primed:     slices.Clone(h.primed),
		pdu:        slices.Clone(h.pdu),
		room:       slices.Clone(h.room),
		total:      h.total,
		dropouts:   h.dropouts,
		start:      h.start,
		sink:       sink,
	}
	d := &h.dirtyState
	c.dirtyState = dirtyState{
		visit:    slices.Clone(d.visit),
		dirty:    slices.Clone(d.dirty),
		inDirty:  slices.Clone(d.inDirty),
		pinned:   slices.Clone(d.pinned),
		held:     slices.Clone(d.held),
		pdus:     make([]int, 0, cap(d.pdus)),
		rooms:    make([]int, 0, cap(d.rooms)),
		run:      inline,
		chunk:    LeafChunk,
		seq:      d.seq,
		prevTime: d.prevTime,
	}
	c.readChunk = func(k, _ int) { c.readLeaves(k) }
	return c, nil
}
