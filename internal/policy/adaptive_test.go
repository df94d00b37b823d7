package policy

import (
	"math"
	"testing"
	"testing/quick"

	"powerstack/internal/units"
)

// In-package property tests for the redistribution machinery the three
// dynamic policies share (the steps of Section III-A).

// mkSlots builds a slot set with targets and bounds derived from compact
// fuzz inputs.
func mkSlots(targets []uint8) []slot {
	slots := make([]slot, 0, len(targets))
	for i, t := range targets {
		slots = append(slots, slot{
			job:    0,
			idx:    i,
			min:    136,
			max:    240,
			target: units.Clamp(units.Power(130+float64(t%120)), 136, 240),
		})
	}
	return slots
}

func totalAlloc(slots []slot) units.Power {
	var t units.Power
	for _, s := range slots {
		t += s.alloc
	}
	return t
}

func TestUniformInitClampsToBounds(t *testing.T) {
	f := func(targets []uint8, budgetRaw uint16) bool {
		if len(targets) == 0 {
			return true
		}
		slots := mkSlots(targets)
		budget := units.Power(float64(budgetRaw))
		uniformInit(slots, budget)
		for _, s := range slots {
			if s.alloc < s.min || s.alloc > s.max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReclaimConservesPower(t *testing.T) {
	f := func(targets []uint8, budgetRaw uint16) bool {
		if len(targets) == 0 {
			return true
		}
		slots := mkSlots(targets)
		uniformInit(slots, units.Power(float64(budgetRaw)))
		before := totalAlloc(slots)
		pool := reclaim(slots)
		after := totalAlloc(slots)
		// Power is conserved: what left the slots is in the pool.
		if math.Abs(float64(before-after-pool)) > 1e-6 {
			return false
		}
		// Nobody sits above target after reclaim.
		for _, s := range slots {
			if s.alloc > s.target+units.Power(1e-9) {
				return false
			}
		}
		return pool >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopUpNeverOvershootsTargets(t *testing.T) {
	f := func(targets []uint8, budgetRaw uint16, poolRaw uint16) bool {
		if len(targets) == 0 {
			return true
		}
		slots := mkSlots(targets)
		uniformInit(slots, units.Power(float64(budgetRaw)))
		reclaim(slots)
		before := totalAlloc(slots)
		pool := units.Power(float64(poolRaw) / 4)
		s := scratch{slots: slots}
		left := s.topUp(pool)
		after := totalAlloc(slots)
		// Spent power equals pool minus remainder.
		if math.Abs(float64(after-before-(pool-left))) > 1e-3 {
			return false
		}
		if left < -1e-9 {
			return false
		}
		for _, s := range slots {
			if s.alloc > s.target+units.Power(1e-6) {
				return false
			}
		}
		// The remainder is only nonzero when every host reached target.
		if left > 0.01 {
			for _, s := range slots {
				if s.alloc < s.target-units.Power(0.01) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWeightedSurplusSinglePass(t *testing.T) {
	f := func(targets []uint8, poolRaw uint16) bool {
		if len(targets) == 0 {
			return true
		}
		slots := mkSlots(targets)
		for i := range slots {
			slots[i].alloc = slots[i].target
		}
		before := totalAlloc(slots)
		pool := units.Power(float64(poolRaw) / 8)
		s := scratch{slots: slots}
		left := s.weightedSurplus(pool)
		after := totalAlloc(slots)
		if math.Abs(float64(after-before-(pool-left))) > 1e-3 {
			return false
		}
		for _, s := range slots {
			if s.alloc > s.max+units.Power(1e-9) || s.alloc < s.min-units.Power(1e-9) {
				return false
			}
		}
		return left >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWeightedSurplusUniformFallback(t *testing.T) {
	// All hosts at their minimum have zero weight: the pool splits
	// uniformly instead of vanishing.
	slots := []slot{
		{min: 136, max: 240, target: 136, alloc: 136},
		{min: 136, max: 240, target: 136, alloc: 136},
	}
	s := scratch{slots: slots}
	left := s.weightedSurplus(20)
	if math.Abs(float64(left)) > 1e-9 {
		t.Errorf("remainder = %v, want 0", left)
	}
	if slots[0].alloc != 146 || slots[1].alloc != 146 {
		t.Errorf("allocs = %v, %v, want 146 each", slots[0].alloc, slots[1].alloc)
	}
}

func TestFlattenClampsTargets(t *testing.T) {
	jobs := []JobInfo{mkJob("j", 1, 1, 500, 10, 200, 200, 210)}
	var s scratch
	s.flattenAll(jobs, 0, sigNeeded)
	slots := s.slots
	if slots[0].target != 240 {
		t.Errorf("critical target = %v, want clamped to 240", slots[0].target)
	}
	if slots[1].target != 136 {
		t.Errorf("waiting target = %v, want clamped to 136", slots[1].target)
	}
}
