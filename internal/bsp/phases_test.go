package bsp

import (
	"testing"
	"time"

	"powerstack/internal/kernel"
)

func computePhaseCfg() kernel.Config {
	return kernel.Config{Intensity: 32, Vector: kernel.YMM, Imbalance: 1}
}

func memPhaseCfg() kernel.Config {
	return kernel.Config{Intensity: 0.5, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 2}
}

func phasedJob(t *testing.T, nHosts int) *Job {
	t.Helper()
	nodes := testNodes(t, nHosts)
	j, err := NewJob("phased", computePhaseCfg(), nodes, 4)
	if err != nil {
		t.Fatal(err)
	}
	j.NoiseSigma = 0
	err = j.SetSchedule([]PhaseSegment{
		{Config: computePhaseCfg(), Iterations: 5},
		{Config: memPhaseCfg(), Iterations: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestSetScheduleValidation(t *testing.T) {
	nodes := testNodes(t, 2)
	j, err := NewJob("j", computePhaseCfg(), nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SetSchedule(nil); err == nil {
		t.Error("empty schedule accepted")
	}
	if err := j.SetSchedule([]PhaseSegment{{Config: kernel.Config{Intensity: -1, Imbalance: 1}, Iterations: 1}}); err == nil {
		t.Error("invalid config accepted")
	}
	if err := j.SetSchedule([]PhaseSegment{{Config: computePhaseCfg(), Iterations: 0}}); err == nil {
		t.Error("zero-length segment accepted")
	}
	if err := j.SetSchedule([]PhaseSegment{{Config: memPhaseCfg(), Iterations: 3}}); err == nil {
		t.Error("schedule not starting at the current config accepted")
	}
	if got := j.schedule; got != nil {
		t.Error("failed SetSchedule should leave no schedule")
	}
}

func TestPhaseSwitchingAndRoles(t *testing.T) {
	j := phasedJob(t, 4)
	// Phase 1: balanced compute — every host critical.
	for k := 0; k < 5; k++ {
		if got := j.CurrentPhaseIndex(); got != 0 {
			t.Fatalf("iteration %d: phase %d, want 0", k, got)
		}
		if _, err := j.RunIterationInto(new(IterationScratch)); err != nil {
			t.Fatal(err)
		}
		if j.CriticalHosts() != 4 {
			t.Fatalf("phase 0 critical hosts = %d", j.CriticalHosts())
		}
	}
	// Phase 2: imbalanced memory phase — half the hosts wait.
	for k := 0; k < 5; k++ {
		if got := j.CurrentPhaseIndex(); got != 1 {
			t.Fatalf("iteration %d: phase %d, want 1", k, got)
		}
		if _, err := j.RunIterationInto(new(IterationScratch)); err != nil {
			t.Fatal(err)
		}
		if j.CriticalHosts() != 2 {
			t.Fatalf("phase 1 critical hosts = %d", j.CriticalHosts())
		}
	}
	// The schedule cycles back.
	if _, err := j.RunIterationInto(new(IterationScratch)); err != nil {
		t.Fatal(err)
	}
	if j.Config != computePhaseCfg() {
		t.Errorf("schedule did not cycle: config %v", j.Config)
	}
}

func TestPhasedIterationTimesDiffer(t *testing.T) {
	j := phasedJob(t, 4)
	var phase0, phase1 time.Duration
	for k := 0; k < 10; k++ {
		ir, err := j.RunIterationInto(new(IterationScratch))
		if err != nil {
			t.Fatal(err)
		}
		if k < 5 {
			phase0 += ir.Elapsed
		} else {
			phase1 += ir.Elapsed
		}
	}
	// 32 FLOPs/byte compute iterations are much longer than 0.5
	// FLOPs/byte streaming iterations at these work sizes.
	if phase0 <= phase1 {
		t.Errorf("compute phase %v not longer than memory phase %v", phase0, phase1)
	}
}

func TestSinglePhaseJobUnaffected(t *testing.T) {
	nodes := testNodes(t, 3)
	j, err := NewJob("plain", computePhaseCfg(), nodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	j.NoiseSigma = 0
	if got := j.CurrentPhaseIndex(); got != 0 {
		t.Errorf("phase index = %d", got)
	}
	a, err := j.RunIterationInto(new(IterationScratch))
	if err != nil {
		t.Fatal(err)
	}
	b, err := j.RunIterationInto(new(IterationScratch))
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed {
		t.Errorf("single-phase iterations differ: %v vs %v", a.Elapsed, b.Elapsed)
	}
}
