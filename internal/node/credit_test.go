package node

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"powerstack/internal/kernel"
	"powerstack/internal/msr"
	"powerstack/internal/rapl"
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

// TestEnergyEncodingPerSocketUnits pins the shared energy encoding against
// per-socket encoding on a node whose sockets decode different energy
// units from MSR_RAPL_POWER_UNIT: FinishIteration and CreditIterations
// must advance each socket's package and DRAM counters by the amounts
// encoded in that socket's own unit, not reuse socket 0's encodings.
func TestEnergyEncodingPerSocketUnits(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 55))
	energyDeltas := func(n *Node, step func()) [][2]uint64 {
		var before [][2]uint64
		for _, su := range n.Sockets() {
			before = append(before, [2]uint64{su.Dev.PrivilegedRead(msr.MSRPkgEnergyStatus), su.Dev.PrivilegedRead(msr.MSRDramEnergyStatus)})
		}
		step()
		for i, su := range n.Sockets() {
			before[i][0] = (su.Dev.PrivilegedRead(msr.MSRPkgEnergyStatus) - before[i][0]) & (1<<32 - 1)
			before[i][1] = (su.Dev.PrivilegedRead(msr.MSRDramEnergyStatus) - before[i][1]) & (1<<32 - 1)
		}
		return before
	}
	differ := 0
	for trial := 0; trial < 100; trial++ {
		n := testNode(t)
		// Socket 1 counts in 2^-14 J instead of the default 2^-16 J.
		dev := n.Sockets()[1].Dev
		dev.PrivilegedWrite(msr.MSRRaplPowerUnit, rapl.DefaultUnitsRegister&^(0x1F<<8)|14<<8)
		dom, err := rapl.NewDomain(dev)
		if err != nil {
			t.Fatal(err)
		}
		n.sockets[1].Rapl = dom
		if n.sockets[0].Rapl.EnergyUnit() == dom.EnergyUnit() {
			t.Fatal("socket energy units agree")
		}

		var pr PhaseResult
		var iterTime time.Duration
		got := energyDeltas(n, func() { pr, iterTime = sampledIteration(t, n, rng) })
		from, to := rng.IntN(1000), 1000+rng.IntN(100_000)
		gotCredit := energyDeltas(n, func() { n.CreditIterations(&pr, iterTime, from, to) })
		pkg, dram := pr.Energy/SocketsPerNode, pr.DRAMEnergy/SocketsPerNode
		for i, su := range n.Sockets() {
			r := su.Rapl
			want := [2]uint64{r.EncodeEnergyDelta(pkg), r.EncodeEnergyDelta(dram)}
			if got[i] != want {
				t.Fatalf("trial %d socket %d: FinishIteration advanced energy by %v, want %v", trial, i, got[i], want)
			}
			wantCredit := [2]uint64{
				(r.EncodeEnergyDelta(pkg*units.Energy(to)) - r.EncodeEnergyDelta(pkg*units.Energy(from))) & (1<<32 - 1),
				(r.EncodeEnergyDelta(dram*units.Energy(to)) - r.EncodeEnergyDelta(dram*units.Energy(from))) & (1<<32 - 1),
			}
			if gotCredit[i] != wantCredit {
				t.Fatalf("trial %d socket %d: CreditIterations [%d, %d) advanced energy by %v, want %v", trial, i, from, to, gotCredit[i], wantCredit)
			}
		}
		if got[0] != got[1] {
			differ++
		}
	}
	if differ == 0 {
		t.Error("no trial encoded the sockets' energy differently")
	}
}
