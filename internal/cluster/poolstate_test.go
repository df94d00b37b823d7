package cluster

import (
	"math/rand/v2"
	"testing"

	"powerstack/internal/cpumodel"
	"powerstack/internal/fault"
	"powerstack/internal/kernel"
	"powerstack/internal/msr"
	"powerstack/internal/node"
	"powerstack/internal/units"
)

// testPoolState builds a PoolState over a fresh n-node cluster and returns
// it with its source nodes.
func testPoolState(t testing.TB, n int, seed uint64) (*PoolState, []*node.Node) {
	t.Helper()
	c, err := New(n, cpumodel.Quartz(), cpumodel.QuartzVariation(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return NewPoolState(c.Nodes()), c.Nodes()
}

// registerImage reads every register (allowlisted and privileged spill) of
// every socket of a node.
func registerImage(t *testing.T, n *node.Node) map[int]map[uint32]uint64 {
	t.Helper()
	out := map[int]map[uint32]uint64{}
	for si, su := range n.Sockets() {
		regs := map[uint32]uint64{}
		for _, addr := range su.Dev.Registers() {
			regs[addr] = su.Dev.PrivilegedRead(addr)
		}
		out[si] = regs
	}
	return out
}

// scramble drives a pool through a fault-injecting scenario: armed MSR
// faults, degradations, cap writes, completed iterations, privileged
// counter advances, and spilled privileged registers — every kind of state
// Restore must wipe.
func scramble(t *testing.T, pool []*node.Node, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0xD1B54A32D192ED03))
	plan := fault.NewPlan(
		fault.Injection{Kind: fault.MSRWriteFault, Node: pool[1].ID, After: 2},
		fault.Injection{Kind: fault.MSRReadFault, Node: pool[3].ID, After: 1},
	)
	plan.Arm(pool, nil)
	cfg := kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1}
	ph := cpumodel.Phase{Work: cfg.TotalWorkPerHost(18, true), Vector: cfg.Vector}
	for _, n := range pool {
		n.SetDegradation(1 + rng.Float64())
		// Cap writes consume the armed countdowns and reprogram PL1.
		n.SetPowerLimit(units.Power(120+rng.Float64()*80) * units.Watt)
		if iterTime, err := n.PlanIteration(&ph); err == nil {
			var pr node.PhaseResult
			n.FinishIteration(&ph, iterTime, 1+rng.Float64(), &pr)
		}
		for _, su := range n.Sockets() {
			su.Dev.PrivilegedAdd(msr.IA32APerf, rng.Uint64()>>16, 64)
			su.Dev.PrivilegedAdd(msr.MSRPkgEnergyStatus, rng.Uint64()>>40, 32)
			// Spill a non-allowlisted register into the side map.
			su.Dev.PrivilegedWrite(0xDEAD, rng.Uint64())
		}
	}
}

// TestPoolStateRestoreRegisterIdentical is the in-place reset property
// test: after a fault-injecting scenario mutates a PoolState pool, Restore
// makes every node register-identical to a fresh clone of the pristine
// source — across several scramble/restore generations.
func TestPoolStateRestoreRegisterIdentical(t *testing.T) {
	const nNodes = 96
	ps, src := testPoolState(t, nNodes, 17)
	if got, want := len(ps.Nodes()), nNodes; got != want {
		t.Fatalf("pool has %d nodes, want %d", got, want)
	}
	if len(ps.words) != nNodes*src[0].WordCount() {
		t.Fatalf("arena %d words, want %d", len(ps.words), nNodes*src[0].WordCount())
	}
	for gen := uint64(0); gen < 3; gen++ {
		scramble(t, ps.Nodes(), 100+gen)
		if err := ps.Restore(); err != nil {
			t.Fatal(err)
		}
		fresh := ClonePool(src)
		for i, n := range ps.Nodes() {
			got, want := registerImage(t, n), registerImage(t, fresh[i])
			for si := range want {
				for addr, w := range want[si] {
					if g, ok := got[si][addr]; !ok || g != w {
						t.Fatalf("gen %d node %s socket %d reg 0x%X: got %#x want %#x", gen, n.ID, si, addr, got[si][addr], w)
					}
				}
				if len(got[si]) != len(want[si]) {
					t.Fatalf("gen %d node %s socket %d: %d registers, want %d (leftover privileged spill?)", gen, n.ID, si, len(got[si]), len(want[si]))
				}
			}
			if n.Degradation() != fresh[i].Degradation() {
				t.Fatalf("gen %d node %s: degradation %v, want %v", gen, n.ID, n.Degradation(), fresh[i].Degradation())
			}
			gl, err1 := n.PowerLimit()
			wl, err2 := fresh[i].PowerLimit()
			if err1 != nil || err2 != nil || gl != wl {
				t.Fatalf("gen %d node %s: limit %v/%v, want %v/%v", gen, n.ID, gl, err1, wl, err2)
			}
		}
	}
}

// TestRecycledPoolMatchesFreshClone checks the state a restore must wipe
// beyond the register words: degradation reverts, and the write fault the
// scenario armed is gone (the scramble armed node 1 to fail after two
// writes, so three writes on every restored node must all succeed).
func TestRecycledPoolMatchesFreshClone(t *testing.T) {
	ps, src := testPoolState(t, 4, 7)
	scramble(t, ps.Nodes(), 3)
	if err := ps.Restore(); err != nil {
		t.Fatal(err)
	}
	for i, nd := range ps.Nodes() {
		if nd.Degradation() != src[i].Degradation() {
			t.Fatalf("node %d: degradation %v leaked, want %v", i, nd.Degradation(), src[i].Degradation())
		}
		for k := 0; k < 3; k++ {
			if _, err := nd.SetPowerLimit(nd.TDP()); err != nil {
				t.Fatalf("node %d write %d: armed fault leaked: %v", i, k, err)
			}
		}
	}
}

// TestRecycledPoolBehavesLikeFresh runs identical work on a restored and a
// fresh pool and compares the physical outcomes exactly.
func TestRecycledPoolBehavesLikeFresh(t *testing.T) {
	ps, src := testPoolState(t, 4, 7)
	scramble(t, ps.Nodes(), 5)
	if err := ps.Restore(); err != nil {
		t.Fatal(err)
	}
	fresh := ClonePool(src)

	cfg := kernel.Config{Intensity: 4, Vector: kernel.YMM, Imbalance: 1}
	ph := cpumodel.Phase{Work: cfg.TotalWorkPerHost(18, true), Vector: cfg.Vector}
	run := func(pool []*node.Node) []node.PhaseResult {
		var out []node.PhaseResult
		for _, nd := range pool {
			if _, err := nd.SetPowerLimit(180); err != nil {
				t.Fatal(err)
			}
			iterTime, err := nd.PlanIteration(&ph)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 5; k++ {
				var res node.PhaseResult
				if err := nd.FinishIteration(&ph, iterTime, 1, &res); err != nil {
					t.Fatal(err)
				}
				out = append(out, res)
			}
		}
		return out
	}
	a, b := run(ps.Nodes()), run(fresh)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d: restored %+v vs fresh %+v", i, a[i], b[i])
		}
	}
}
