package coordinator

import (
	"testing"

	"powerstack/internal/units"
)

func hierReqs() []Request {
	return []Request{
		{JobID: "a", Min: 200, Needed: 400, MaxUseful: 600},
		{JobID: "b", Min: 100, Needed: 300, MaxUseful: 350},
		{JobID: "c", Min: 150, Needed: 250, MaxUseful: 500},
		{JobID: "d", Min: 120, Needed: 220, MaxUseful: 240},
	}
}

// allocateHier runs a full hierarchical allocation on h: Stage, then every
// room's rounds in order on one scratch. The returned slice is owned by h.
func allocateHier(h *HierAlloc, ws *RoomScratch, budget units.Power, reqs []Request, rackOf, roomOf []int) []Grant {
	grants, rooms := h.Stage(budget, reqs, rackOf, roomOf)
	for mi := 0; mi < rooms; mi++ {
		h.AllocateRoom(mi, reqs, ws, grants)
	}
	return grants
}

// hierGrants is allocateHier on fresh scratch.
func hierGrants(budget units.Power, reqs []Request, rackOf, roomOf []int) []Grant {
	return allocateHier(&HierAlloc{}, &RoomScratch{}, budget, reqs, rackOf, roomOf)
}

func sumGrants(grants []Grant) units.Power {
	var total units.Power
	for _, g := range grants {
		total += g.Budget
	}
	return total
}

// TestHierarchicalSingleRackIdentical pins the degenerate case: with every
// request in one rack (and hence one room), the hierarchical split is
// bit-identical to the flat Allocate at surplus, deficit, and floor
// budgets.
func TestHierarchicalSingleRackIdentical(t *testing.T) {
	reqs := hierReqs()
	rack := []int{3, 3, 3, 3}
	room := []int{0, 0, 0, 0}
	for _, budget := range []units.Power{2000, 1500, 1170, 900, 800, 400} {
		flat := Allocate(budget, reqs)
		hier := hierGrants(budget, reqs, rack, room)
		for i := range flat {
			if flat[i] != hier[i] {
				t.Errorf("budget %v req %s: flat %v != hier %v", budget, reqs[i].JobID, flat[i].Budget, hier[i].Budget)
			}
		}
	}
}

// TestHierarchicalConservesBudget checks the water-fill invariants survive
// the cascade: no grant below its Min, none above MaxUseful when the budget
// binds, and the total never exceeds the budget unless even the floors do.
func TestHierarchicalConservesBudget(t *testing.T) {
	reqs := hierReqs()
	rack := []int{0, 0, 1, 2}
	room := []int{0, 0, 0, 1}
	var totalMin units.Power
	for _, r := range reqs {
		totalMin += r.Min
	}
	for _, budget := range []units.Power{2500, 1400, 1100, 900, 600, 300} {
		grants := hierGrants(budget, reqs, rack, room)
		if len(grants) != len(reqs) {
			t.Fatalf("budget %v: %d grants for %d requests", budget, len(grants), len(reqs))
		}
		for i, g := range grants {
			if g.JobID != reqs[i].JobID {
				t.Fatalf("budget %v: grant %d is %s, want %s", budget, i, g.JobID, reqs[i].JobID)
			}
			if g.Budget < reqs[i].Min-1e-9 {
				t.Errorf("budget %v: %s granted %v below min %v", budget, g.JobID, g.Budget, reqs[i].Min)
			}
			if g.Budget > reqs[i].MaxUseful+1e-9 {
				t.Errorf("budget %v: %s granted %v above max useful %v", budget, g.JobID, g.Budget, reqs[i].MaxUseful)
			}
		}
		if total := sumGrants(grants); total > budget+1e-6 && totalMin < budget {
			t.Errorf("budget %v: grants total %v exceeds budget", budget, total)
		}
	}
}

// TestHierarchicalStarvedRackHoldsFloor places a rack whose demand dwarfs
// its rack-mates in a tight machine: every job still clears its floor, and
// surplus steering happens within rooms before racks see it.
func TestHierarchicalStarvedRackHoldsFloor(t *testing.T) {
	reqs := []Request{
		{JobID: "big", Min: 500, Needed: 2000, MaxUseful: 2400},
		{JobID: "small1", Min: 50, Needed: 80, MaxUseful: 100},
		{JobID: "small2", Min: 50, Needed: 80, MaxUseful: 100},
	}
	grants := hierGrants(800, reqs, []int{0, 1, 1}, []int{0, 0, 0})
	for i, g := range grants {
		if g.Budget < reqs[i].Min {
			t.Errorf("%s granted %v below floor %v", g.JobID, g.Budget, reqs[i].Min)
		}
	}
	if total := sumGrants(grants); total > 800+1e-6 {
		t.Errorf("grants total %v exceeds 800 W budget", total)
	}
}

// TestHierAllocScratchIdentical runs one HierAlloc across many rounds with
// shifting request sets and topologies, asserting every round's grants are
// identical to an allocation on fresh scratch — reuse must never leak
// state between rounds.
func TestHierAllocScratchIdentical(t *testing.T) {
	var h HierAlloc
	var ws RoomScratch
	base := hierReqs()
	for round := 0; round < 6; round++ {
		n := 1 + (round*3)%len(base)
		reqs := base[:n]
		rack := make([]int, n)
		room := make([]int, n)
		for i := range reqs {
			rack[i] = (i + round) % 3
			room[i] = rack[i] / 2
		}
		budget := units.Power(300 + 400*round)
		want := hierGrants(budget, reqs, rack, room)
		got := allocateHier(&h, &ws, budget, reqs, rack, room)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d grants, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d grant %d: scratch %+v != fresh %+v", round, i, got[i], want[i])
			}
		}
	}
}

// TestHierAllocAllocatesNothingSteadyState pins the scratch pooling: after
// the first call warms the buffers, repeated Stage + AllocateRoom rounds
// over the same shape allocate nothing.
func TestHierAllocAllocatesNothingSteadyState(t *testing.T) {
	var h HierAlloc
	var ws RoomScratch
	reqs := hierReqs()
	rack := []int{0, 0, 1, 2}
	room := []int{0, 0, 0, 1}
	allocateHier(&h, &ws, 1200, reqs, rack, room)
	allocs := testing.AllocsPerRun(50, func() {
		allocateHier(&h, &ws, 1200, reqs, rack, room)
	})
	if allocs != 0 {
		t.Errorf("steady-state Stage + AllocateRoom allocates %v objects per run", allocs)
	}
}
