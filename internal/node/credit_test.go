package node

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"powerstack/internal/kernel"
	"powerstack/internal/msr"
	"powerstack/internal/units"
)

// sampledIteration runs one real iteration on n at a random cap and work
// mix and returns it with its iteration time — the steady state a facility
// job would credit.
func sampledIteration(t *testing.T, n *Node, rng *rand.Rand) (PhaseResult, time.Duration) {
	t.Helper()
	if _, err := n.SetPowerLimit(units.Power(140 + 100*rng.Float64())); err != nil {
		t.Fatal(err)
	}
	vecs := []kernel.Vector{kernel.Scalar, kernel.XMM, kernel.YMM}
	ph := phase(kernel.Config{Intensity: 0.25 + 31*rng.Float64(), Vector: vecs[rng.IntN(len(vecs))], Imbalance: 1})
	work, err := n.PlanIteration(&ph)
	if err != nil {
		t.Fatal(err)
	}
	iterTime := time.Duration(float64(work) * (1 + rng.Float64()))
	pr, err := iterate(n, ph, iterTime, 1)
	if err != nil {
		t.Fatal(err)
	}
	return pr, iterTime
}

// TestCreditIterationsTelescopes is the property behind lazy settlement:
// crediting K iterations split at random settle points programs exactly
// the registers one credit of all K does — including across 32-bit energy
// counter wraparound.
func TestCreditIterationsTelescopes(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 34))
	wrapped := 0
	for trial := 0; trial < 300; trial++ {
		n, err := New("quartz-0001", quartz(), 0.9+0.2*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		pr, iterTime := sampledIteration(t, n, rng)
		once, split := clone(n), clone(n)
		k := 1 + rng.IntN(2_000_000)
		once.CreditIterations(&pr, iterTime, 0, k)
		if n.Sockets()[0].Rapl.EncodeEnergyDelta(pr.Energy/SocketsPerNode*units.Energy(k)) >= 1<<32 {
			wrapped++
		}

		cuts := []int{0, k}
		for c := rng.IntN(8); c > 0; c-- {
			cuts = append(cuts, rng.IntN(k+1))
		}
		slices.Sort(cuts)
		for i := 1; i < len(cuts); i++ {
			split.CreditIterations(&pr, iterTime, cuts[i-1], cuts[i])
		}
		if a, b := once.SnapshotWords(nil), split.SnapshotWords(nil); !slices.Equal(a, b) {
			t.Fatalf("trial %d: K=%d split at %v: registers differ\n once  %v\n split %v", trial, k, cuts, a, b)
		}
	}
	if wrapped == 0 {
		t.Error("no trial wrapped the 32-bit energy counter")
	}
}

// TestCreditIterationsFromZero pins that a credit starting at zero advances
// each counter by the encoded total of count repetitions, in one rounding
// per counter — the arithmetic of a job's first credit after a probe.
func TestCreditIterationsFromZero(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 13))
	for trial := 0; trial < 100; trial++ {
		n := testNode(t)
		pr, iterTime := sampledIteration(t, n, rng)
		count := 1 + rng.IntN(100_000)
		s := n.Sockets()[0]
		seconds := iterTime.Seconds() * float64(count)
		base := uint64(n.Spec().BaseFreq.Hz() * seconds)
		want := map[uint32]uint64{
			msr.MSRPkgEnergyStatus:   s.Rapl.EncodeEnergyDelta(pr.Energy / SocketsPerNode * units.Energy(count)),
			msr.MSRDramEnergyStatus:  s.Rapl.EncodeEnergyDelta(pr.DRAMEnergy / SocketsPerNode * units.Energy(count)),
			msr.IA32APerf:            uint64(pr.AchievedFreq.Hz() * seconds),
			msr.IA32MPerf:            base,
			msr.IA32TimeStampCounter: base,
		}
		before := map[uint32][]uint64{}
		for reg := range want {
			for _, su := range n.Sockets() {
				before[reg] = append(before[reg], su.Dev.PrivilegedRead(reg))
			}
		}
		n.CreditIterations(&pr, iterTime, 0, count)
		for reg, delta := range want {
			for i, su := range n.Sockets() {
				got := su.Dev.PrivilegedRead(reg) - before[reg][i]
				if reg == msr.MSRPkgEnergyStatus || reg == msr.MSRDramEnergyStatus {
					got &= 1<<32 - 1
					delta &= 1<<32 - 1
				}
				if got != delta {
					t.Fatalf("trial %d count %d reg %#x socket %d: delta %d, want %d", trial, count, reg, i, got, delta)
				}
			}
		}
	}
}
