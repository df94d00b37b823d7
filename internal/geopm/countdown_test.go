package geopm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"powerstack/internal/kernel"
	"powerstack/internal/msr"
	"powerstack/internal/units"
)

// adjustCounter wraps an agent and counts the samples it has seen, which
// places an error that ends Controller.Run in the iteration it surfaced in.
type adjustCounter struct {
	Agent
	seen int
}

func (a *adjustCounter) Adjust(budget units.Power, s Sample) []units.Power {
	a.seen++
	return a.Agent.Adjust(budget, s)
}

// countdownOutcome runs a four-host balancer job for four iterations with
// an OpRead countdown fault armed on socket 0 of one host, and reports
// where the fault surfaced: the number of samples the agent had seen and
// the error, or the run's totals when the countdown outlasted it.
func countdownOutcome(t *testing.T, reg uint32, host, after int) string {
	t.Helper()
	cfg := kernel.Config{Intensity: 8, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 2}
	j := testJob(t, cfg, 4, 11)
	j.NoiseSigma = 0.01
	j.Hosts[host].Node.Sockets()[0].Dev.ArmFault(msr.OpRead, reg, after, errFlakyRead)
	agent := &adjustCounter{Agent: NewPowerBalancer()}
	ctl, err := NewController(j, agent, 4*200*units.Watt)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.Run(4)
	if err != nil {
		if !errors.Is(err, errFlakyRead) {
			t.Fatalf("reg 0x%03X after %d: unexpected error %v", reg, after, err)
		}
		return fmt.Sprintf("iter=%d %v", agent.seen, err)
	}
	return fmt.Sprintf("ok elapsed=%d energy=%v", rep.Elapsed, float64(rep.TotalEnergy))
}

var errFlakyRead = errors.New("flaky read")

// TestIterationFaultCountdown pins how many unprivileged reads of the PL1
// limit and package energy registers one host's socket 0 consumes per
// controller iteration, and in which order: a countdown fault armed after
// k healthy reads must surface at the iteration, on the host and through
// the call the table records. The controller carries each host's PL1 from
// its own writes, so per iteration PL1 is read only by the cap write's
// read-modify-write and read-back and by the iteration's operating-point
// resolve. The rows that outlast the
// countdown pin the run's totals, so an armed but unfired fault (the
// node's faulty-device path) computes exactly what a healthy run does.
func TestIterationFaultCountdown(t *testing.T) {
	var got strings.Builder
	for _, c := range []struct {
		reg      uint32
		maxAfter int // past the last read a full run makes
	}{{msr.MSRPkgPowerLimit, 25}, {msr.MSRPkgEnergyStatus, 6}} {
		for _, host := range []int{1, 3} {
			for after := 0; after <= c.maxAfter; after++ {
				fmt.Fprintf(&got, "0x%03X host=%d after=%d %s\n", c.reg, host, after,
					countdownOutcome(t, c.reg, host, after))
			}
		}
	}
	if got.String() != countdownTable {
		t.Errorf("fault countdown table changed:\n%s", got.String())
	}
}

const countdownTable = `0x610 host=1 after=0 iter=0 node quartz0002: flaky read
0x610 host=1 after=1 iter=0 node quartz0002: flaky read
0x610 host=1 after=2 iter=0 node quartz0002: flaky read
0x610 host=1 after=3 iter=0 bsp: job job0 host quartz0002: flaky read
0x610 host=1 after=4 iter=0 bsp: job job0 host quartz0002: flaky read
0x610 host=1 after=5 iter=1 node quartz0002: flaky read
0x610 host=1 after=6 iter=1 node quartz0002: flaky read
0x610 host=1 after=7 iter=1 bsp: job job0 host quartz0002: flaky read
0x610 host=1 after=8 iter=1 bsp: job job0 host quartz0002: flaky read
0x610 host=1 after=9 iter=2 node quartz0002: flaky read
0x610 host=1 after=10 iter=2 node quartz0002: flaky read
0x610 host=1 after=11 iter=2 bsp: job job0 host quartz0002: flaky read
0x610 host=1 after=12 iter=2 bsp: job job0 host quartz0002: flaky read
0x610 host=1 after=13 iter=3 node quartz0002: flaky read
0x610 host=1 after=14 iter=3 node quartz0002: flaky read
0x610 host=1 after=15 iter=3 bsp: job job0 host quartz0002: flaky read
0x610 host=1 after=16 iter=3 bsp: job job0 host quartz0002: flaky read
0x610 host=1 after=17 ok elapsed=74455136 energy=57.577392578125
0x610 host=1 after=18 ok elapsed=74455136 energy=57.577392578125
0x610 host=1 after=19 ok elapsed=74455136 energy=57.577392578125
0x610 host=1 after=20 ok elapsed=74455136 energy=57.577392578125
0x610 host=1 after=21 ok elapsed=74455136 energy=57.577392578125
0x610 host=1 after=22 ok elapsed=74455136 energy=57.577392578125
0x610 host=1 after=23 ok elapsed=74455136 energy=57.577392578125
0x610 host=1 after=24 ok elapsed=74455136 energy=57.577392578125
0x610 host=1 after=25 ok elapsed=74455136 energy=57.577392578125
0x610 host=3 after=0 iter=0 node quartz0004: flaky read
0x610 host=3 after=1 iter=0 node quartz0004: flaky read
0x610 host=3 after=2 iter=0 node quartz0004: flaky read
0x610 host=3 after=3 iter=0 bsp: job job0 host quartz0004: flaky read
0x610 host=3 after=4 iter=0 bsp: job job0 host quartz0004: flaky read
0x610 host=3 after=5 iter=1 node quartz0004: flaky read
0x610 host=3 after=6 iter=1 node quartz0004: flaky read
0x610 host=3 after=7 iter=1 bsp: job job0 host quartz0004: flaky read
0x610 host=3 after=8 iter=1 bsp: job job0 host quartz0004: flaky read
0x610 host=3 after=9 iter=2 node quartz0004: flaky read
0x610 host=3 after=10 iter=2 node quartz0004: flaky read
0x610 host=3 after=11 iter=2 bsp: job job0 host quartz0004: flaky read
0x610 host=3 after=12 iter=2 bsp: job job0 host quartz0004: flaky read
0x610 host=3 after=13 iter=3 node quartz0004: flaky read
0x610 host=3 after=14 iter=3 node quartz0004: flaky read
0x610 host=3 after=15 iter=3 bsp: job job0 host quartz0004: flaky read
0x610 host=3 after=16 iter=3 bsp: job job0 host quartz0004: flaky read
0x610 host=3 after=17 ok elapsed=74455136 energy=57.577392578125
0x610 host=3 after=18 ok elapsed=74455136 energy=57.577392578125
0x610 host=3 after=19 ok elapsed=74455136 energy=57.577392578125
0x610 host=3 after=20 ok elapsed=74455136 energy=57.577392578125
0x610 host=3 after=21 ok elapsed=74455136 energy=57.577392578125
0x610 host=3 after=22 ok elapsed=74455136 energy=57.577392578125
0x610 host=3 after=23 ok elapsed=74455136 energy=57.577392578125
0x610 host=3 after=24 ok elapsed=74455136 energy=57.577392578125
0x610 host=3 after=25 ok elapsed=74455136 energy=57.577392578125
0x611 host=1 after=0 iter=0 node quartz0002: flaky read
0x611 host=1 after=1 iter=0 node quartz0002: flaky read
0x611 host=1 after=2 iter=1 node quartz0002: flaky read
0x611 host=1 after=3 iter=2 node quartz0002: flaky read
0x611 host=1 after=4 iter=3 node quartz0002: flaky read
0x611 host=1 after=5 ok elapsed=74455136 energy=57.577392578125
0x611 host=1 after=6 ok elapsed=74455136 energy=57.577392578125
0x611 host=3 after=0 iter=0 node quartz0004: flaky read
0x611 host=3 after=1 iter=0 node quartz0004: flaky read
0x611 host=3 after=2 iter=1 node quartz0004: flaky read
0x611 host=3 after=3 iter=2 node quartz0004: flaky read
0x611 host=3 after=4 iter=3 node quartz0004: flaky read
0x611 host=3 after=5 ok elapsed=74455136 energy=57.577392578125
0x611 host=3 after=6 ok elapsed=74455136 energy=57.577392578125
`
