package coordinator

import (
	"fmt"

	"powerstack/internal/units"
)

// HierAlloc runs hierarchical allocations along the physical topology:
// requests are aggregated per rack and racks per room, the budget is split
// over the room aggregates, each room's grant over its racks, and each
// rack's grant over its own requests. Decisions at every level use the same
// water-fill rules as Allocate, so grants conserve the budget, but a
// request competes only with its rack siblings for the rack's grant rather
// than with every job in the machine. With all requests in a single rack
// the result is bit-identical to Allocate.
//
// The per-rack and per-room aggregate requests, member index lists,
// result buffers, and the "rackN"/"roomN" label strings are all kept
// between calls, so a facility replanning every few simulated minutes
// allocates nothing on this path at steady state. The zero value is ready
// to use. Stage is single-goroutine; AllocateRoom may run concurrently for
// different rooms, each with its own RoomScratch.
type HierAlloc struct {
	rackIdx     map[int]int // rack id -> aggregate index
	rackReqs    []Request   // one aggregate request per rack
	rackRoom    []int       // rack aggregate -> room id
	rackMembers [][]int     // rack aggregate -> request indexes
	roomIdx     map[int]int
	roomReqs    []Request
	roomMembers [][]int // room aggregate -> rack aggregate indexes

	grants     []Grant // result buffer, reused
	roomGrants []Grant // room-round output

	rackNames []string // dense "rackN" label cache, indexed by rack id
	roomNames []string
}

// RoomScratch is the per-room sub-round scratch AllocateRoom works in.
// Replan pipelines that fan rooms out across workers give each worker its
// own, so the rack and job rounds of different rooms never share buffers.
// The zero value is ready to use.
type RoomScratch struct {
	rackSub    []Request // rack sub-round input
	rackGrants []Grant
	jobSub     []Request // per-rack job sub-round input
	jobGrants  []Grant
}

// rackName returns the cached "rackN" label, growing the cache on first use
// of a rack id. Labels only name aggregate pseudo-requests inside the
// rounds; they never appear in the returned grants.
func (h *HierAlloc) rackName(id int) string {
	for id >= len(h.rackNames) {
		h.rackNames = append(h.rackNames, fmt.Sprintf("rack%d", len(h.rackNames)))
	}
	return h.rackNames[id]
}

func (h *HierAlloc) roomName(id int) string {
	for id >= len(h.roomNames) {
		h.roomNames = append(h.roomNames, fmt.Sprintf("room%d", len(h.roomNames)))
	}
	return h.roomNames[id]
}

// Stage runs the shared, single-goroutine prefix of a hierarchical
// allocation: aggregation per rack and per room in first-appearance order,
// then the room-level water-fill of the budget. rackOf[i] and roomOf[i]
// give request i's rack and room, and requests sharing a rack must share a
// room. It returns the result buffer (owned by h, valid until the next
// Stage) and the room count; per-request grants are not filled in until
// AllocateRoom has run for every room. Rooms are independent after Stage,
// so a replan pipeline fans AllocateRoom out across workers and gets
// bit-identical grants at any parallelism.
func (h *HierAlloc) Stage(budget units.Power, reqs []Request, rackOf, roomOf []int) ([]Grant, int) {
	if h.rackIdx == nil {
		h.rackIdx = make(map[int]int)
		h.roomIdx = make(map[int]int)
	}
	clear(h.rackIdx)
	clear(h.roomIdx)
	h.rackReqs = h.rackReqs[:0]
	h.rackRoom = h.rackRoom[:0]
	h.roomReqs = h.roomReqs[:0]

	// Aggregate per rack, then racks per room, in first-appearance order
	// (the summation order that keeps the float aggregates deterministic).
	for i, r := range reqs {
		ri, ok := h.rackIdx[rackOf[i]]
		if !ok {
			ri = len(h.rackReqs)
			h.rackIdx[rackOf[i]] = ri
			h.rackReqs = append(h.rackReqs, Request{JobID: h.rackName(rackOf[i])})
			h.rackRoom = append(h.rackRoom, roomOf[i])
			if ri < len(h.rackMembers) {
				h.rackMembers[ri] = h.rackMembers[ri][:0]
			} else {
				h.rackMembers = append(h.rackMembers, nil)
			}
		}
		h.rackReqs[ri].Min += r.Min
		h.rackReqs[ri].Needed += r.Needed
		h.rackReqs[ri].MaxUseful += r.MaxUseful
		h.rackMembers[ri] = append(h.rackMembers[ri], i)
	}
	for ri, rr := range h.rackReqs {
		mi, ok := h.roomIdx[h.rackRoom[ri]]
		if !ok {
			mi = len(h.roomReqs)
			h.roomIdx[h.rackRoom[ri]] = mi
			h.roomReqs = append(h.roomReqs, Request{JobID: h.roomName(h.rackRoom[ri])})
			if mi < len(h.roomMembers) {
				h.roomMembers[mi] = h.roomMembers[mi][:0]
			} else {
				h.roomMembers = append(h.roomMembers, nil)
			}
		}
		h.roomReqs[mi].Min += rr.Min
		h.roomReqs[mi].Needed += rr.Needed
		h.roomReqs[mi].MaxUseful += rr.MaxUseful
		h.roomMembers[mi] = append(h.roomMembers[mi], ri)
	}

	// The room round: budget water-filled over the room aggregates. The
	// rack and job rounds below each room run in AllocateRoom.
	h.grants = grow(h.grants, len(reqs))
	h.roomGrants = grow(h.roomGrants, len(h.roomReqs))
	allocateInto(h.roomGrants, budget, h.roomReqs)
	return h.grants, len(h.roomReqs)
}

// AllocateRoom runs one staged room's rack and job rounds: the room's
// grant is water-filled over its racks, each rack's grant over its own
// requests, and the per-request grants written into grants (the buffer
// Stage returned) at their request indexes. Rooms touch disjoint request
// indexes, so concurrent AllocateRoom calls for different rooms — each
// with its own RoomScratch — are race-free; everything read from h is
// fixed at Stage time.
func (h *HierAlloc) AllocateRoom(mi int, reqs []Request, ws *RoomScratch, grants []Grant) {
	members := h.roomMembers[mi]
	ws.rackSub = ws.rackSub[:0]
	for _, ri := range members {
		ws.rackSub = append(ws.rackSub, h.rackReqs[ri])
	}
	ws.rackGrants = grow(ws.rackGrants, len(members))
	allocateInto(ws.rackGrants, h.roomGrants[mi].Budget, ws.rackSub)
	for k, ri := range members {
		jobs := h.rackMembers[ri]
		ws.jobSub = ws.jobSub[:0]
		for _, qi := range jobs {
			ws.jobSub = append(ws.jobSub, reqs[qi])
		}
		ws.jobGrants = grow(ws.jobGrants, len(jobs))
		allocateInto(ws.jobGrants, ws.rackGrants[k].Budget, ws.jobSub)
		for j, qi := range jobs {
			grants[qi] = Grant{JobID: reqs[qi].JobID, Budget: ws.jobGrants[j].Budget}
		}
	}
}

// RoomRacks returns room mi's rack aggregate indexes (first-appearance
// order), valid until the next Stage. Read-only for callers.
func (h *HierAlloc) RoomRacks(mi int) []int { return h.roomMembers[mi] }

// RackRequests returns rack aggregate ri's request indexes
// (first-appearance order), valid until the next Stage.
// Read-only for callers.
func (h *HierAlloc) RackRequests(ri int) []int { return h.rackMembers[ri] }

// grow returns s resized to n, reusing capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
