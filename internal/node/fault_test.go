package node

import (
	"errors"
	"slices"
	"testing"

	"powerstack/internal/cpumodel"
	"powerstack/internal/kernel"
	"powerstack/internal/msr"
	"powerstack/internal/rapl"
	"powerstack/internal/units"
)

// Failure injection: every control and telemetry path must surface MSR
// access failures instead of silently proceeding with stale state.

var errFlaky = errors.New("msr_safe: device temporarily unavailable")

func TestSetPowerLimitSurfacesWriteFault(t *testing.T) {
	n := testNode(t)
	n.Sockets()[1].Dev.SetFault(msr.MSRPkgPowerLimit, errFlaky)
	if _, err := n.SetPowerLimit(200 * units.Watt); !errors.Is(err, errFlaky) {
		t.Errorf("err = %v, want the injected fault", err)
	}
	// Clearing the fault restores operation.
	n.Sockets()[1].Dev.SetFault(msr.MSRPkgPowerLimit, nil)
	if _, err := n.SetPowerLimit(200 * units.Watt); err != nil {
		t.Errorf("after clearing: %v", err)
	}
}

func TestPowerLimitSurfacesReadFault(t *testing.T) {
	n := testNode(t)
	n.Sockets()[0].Dev.SetFault(msr.MSRPkgPowerLimit, errFlaky)
	if _, err := n.PowerLimit(); !errors.Is(err, errFlaky) {
		t.Errorf("err = %v", err)
	}
	ph := phase(kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1})
	if _, err := n.PlanIteration(&ph); !errors.Is(err, errFlaky) {
		t.Errorf("PlanIteration err = %v", err)
	}
	if _, err := iterate(n, ph, 0, 1); !errors.Is(err, errFlaky) {
		t.Errorf("iterate err = %v", err)
	}
}

// TestFinishIterationRereadsFaultyLimit pins the faulty-device rule: a
// fault that opens between PlanIteration and FinishIteration surfaces from
// FinishIteration, before any counter advances.
func TestFinishIterationRereadsFaultyLimit(t *testing.T) {
	n := testNode(t)
	ph := phase(kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1})
	if _, err := n.PlanIteration(&ph); err != nil {
		t.Fatal(err)
	}
	before := n.SnapshotWords(nil)
	n.Sockets()[0].Dev.SetFault(msr.MSRPkgPowerLimit, errFlaky)
	var res PhaseResult
	if err := n.FinishIteration(&ph, 0, 1, &res); !errors.Is(err, errFlaky) {
		t.Errorf("FinishIteration err = %v, want the injected fault", err)
	}
	if !slices.Equal(before, n.SnapshotWords(nil)) {
		t.Error("a failed FinishIteration advanced the counters")
	}
}

func TestEnergySurfacesCounterFault(t *testing.T) {
	n := testNode(t)
	n.Sockets()[0].Dev.SetFault(msr.MSRPkgEnergyStatus, errFlaky)
	if _, err := n.Energy(); !errors.Is(err, errFlaky) {
		t.Errorf("err = %v", err)
	}
}

func TestRaplDomainFailsOnUnreadableUnitRegister(t *testing.T) {
	// A device whose unit register cannot be read must fail RAPL domain
	// binding (and hence node construction), not produce garbage units.
	dev := msr.NewDevice(nil)
	rapl.ProgramDefaults(dev, cpumodel.Quartz().TDP, cpumodel.Quartz().MinPowerLimit, 180*units.Watt)
	dev.SetFault(msr.MSRRaplPowerUnit, errFlaky)
	if _, err := rapl.NewDomain(dev); !errors.Is(err, errFlaky) {
		t.Errorf("err = %v, want the injected fault", err)
	}
}
