package geopm

import (
	"math"
	"testing"

	"powerstack/internal/cpumodel"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
	"powerstack/internal/units"
)

func TestFrequencyMapPinsHosts(t *testing.T) {
	cfg := kernel.Config{Intensity: 0.25, Vector: kernel.YMM, Imbalance: 1}
	j := testJob(t, cfg, 4, 8)
	agent := &FrequencyMap{Ceiling: 1.8 * units.Gigahertz}
	ctl, err := NewController(j, agent, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.Run(15)
	if err != nil {
		t.Fatal(err)
	}
	if agent.Name() != "frequency_map" {
		t.Error("agent name")
	}
	for _, h := range j.Hosts {
		pin, err := h.Node.FrequencyPin()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pin.GHz()-1.8) > 1e-9 {
			t.Errorf("host %s pin = %v, want 1.8 GHz", h.Node.ID, pin)
		}
	}
	// Achieved frequency honors the ceiling; the first iteration runs at
	// turbo (the agent pins on its first Adjust), so the run mean sits
	// just above the pin.
	for _, h := range rep.Hosts {
		if h.MeanAchievedFreq.GHz() > 1.87 {
			t.Errorf("host %s achieved %v above the pin", h.HostID, h.MeanAchievedFreq)
		}
	}
	if rep.ConvergedAt < 0 {
		t.Error("frequency map never converged")
	}
}

func TestDVFSRooflineAsymmetry(t *testing.T) {
	// Pinning 1.6 GHz on a memory-bound job saves a lot of power for
	// little time; on a compute-bound job it costs proportionally more
	// time than it saves in relative terms of the roofline slowdown.
	run := func(cfg kernel.Config, pin units.Frequency) (power, slowdown float64) {
		base := testJob(t, cfg, 4, 8)
		repBase, err := mustRun(t, base, Monitor{}, 0, 15)
		if err != nil {
			t.Fatal(err)
		}
		pinned := testJob(t, cfg, 4, 8)
		repPin, err := mustRun(t, pinned, &FrequencyMap{Ceiling: pin}, 0, 15)
		if err != nil {
			t.Fatal(err)
		}
		return repPin.MeanHostPower().Watts() / repBase.MeanHostPower().Watts(),
			repPin.Elapsed.Seconds() / repBase.Elapsed.Seconds()
	}
	pin := 1.6 * units.Gigahertz
	memPower, memSlow := run(kernel.Config{Intensity: 0.25, Vector: kernel.YMM, Imbalance: 1}, pin)
	compPower, compSlow := run(kernel.Config{Intensity: 32, Vector: kernel.YMM, Imbalance: 1}, pin)

	if memPower > 0.75 {
		t.Errorf("memory-bound pinned power ratio = %v, want deep savings", memPower)
	}
	if memSlow > 1.12 {
		t.Errorf("memory-bound slowdown = %v, want small", memSlow)
	}
	if compSlow < 1.3 {
		t.Errorf("compute-bound slowdown = %v, want severe", compSlow)
	}
	// The energy trade: memory-bound wins (energy ratio < 1), compute-
	// bound barely does or loses.
	memEnergy := memPower * memSlow
	compEnergy := compPower * compSlow
	if memEnergy >= 0.85 {
		t.Errorf("memory-bound energy ratio = %v, want < 0.85", memEnergy)
	}
	if memEnergy >= compEnergy {
		t.Errorf("DVFS should favor memory-bound: %v vs %v", memEnergy, compEnergy)
	}
}

func TestFrequencyPinInteractsWithPowerCap(t *testing.T) {
	cfg := kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1}
	j := testJob(t, cfg, 2, 8)
	n := j.Hosts[0].Node
	// A generous pin with a tight cap: the cap binds.
	if _, err := n.SetFrequencyPin(2.6 * units.Gigahertz); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SetPowerLimit(150 * units.Watt); err != nil {
		t.Fatal(err)
	}
	res1, err := iterate(n, j.Phase(0))
	if err != nil {
		t.Fatal(err)
	}
	if res1.AchievedFreq.GHz() > 2.3 {
		t.Errorf("cap did not bind under a high pin: %v", res1.AchievedFreq)
	}
	// A tight pin with a generous cap: the pin binds.
	if _, err := n.SetPowerLimit(240 * units.Watt); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SetFrequencyPin(1.4 * units.Gigahertz); err != nil {
		t.Fatal(err)
	}
	res2, err := iterate(n, j.Phase(0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.AchievedFreq.GHz()-1.4) > 0.01 {
		t.Errorf("pin did not bind under a high cap: %v", res2.AchievedFreq)
	}
	// Clearing the pin restores turbo.
	if _, err := n.SetFrequencyPin(0); err != nil {
		t.Fatal(err)
	}
	res3, err := iterate(n, j.Phase(0))
	if err != nil {
		t.Fatal(err)
	}
	if res3.AchievedFreq.GHz() < 2.5 {
		t.Errorf("clearing the pin did not restore turbo: %v", res3.AchievedFreq)
	}
}

func TestSetFrequencyPinQuantizes(t *testing.T) {
	cfg := kernel.Config{Intensity: 1, Vector: kernel.YMM, Imbalance: 1}
	j := testJob(t, cfg, 1, 8)
	n := j.Hosts[0].Node
	got, err := n.SetFrequencyPin(1.87 * units.Gigahertz)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.GHz()-1.8) > 1e-9 {
		t.Errorf("programmed pin = %v, want 1.8 GHz (P-state floor)", got)
	}
	read, err := n.FrequencyPin()
	if err != nil {
		t.Fatal(err)
	}
	if read != got {
		t.Errorf("read-back %v != programmed %v", read, got)
	}
}

// iterate plans and finishes one critical-path iteration of ph on n.
func iterate(n *node.Node, ph cpumodel.Phase) (node.PhaseResult, error) {
	var res node.PhaseResult
	if _, err := n.PlanIteration(&ph); err != nil {
		return res, err
	}
	err := n.FinishIteration(&ph, 0, 1, &res)
	return res, err
}
