// Package cluster models the machine-room view of the Quartz system: a
// population of nominally identical nodes whose manufacturing variation
// makes them perform differently under power caps. It reproduces the
// hardware-variation control methodology of Section V-A2 / Figure 6: run
// the most power-hungry workload under a low power limit on every node,
// measure achieved frequency through the APERF/MPERF counters, partition
// the population with k-means, and run experiments on the medium cluster so
// results reflect the system's central tendency.
package cluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"

	"powerstack/internal/cpumodel"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
	"powerstack/internal/stats"
	"powerstack/internal/units"
)

// Cluster is a set of simulated nodes.
type Cluster struct {
	nodes []*node.Node
}

// New builds a cluster of size nodes with variation multipliers drawn from
// the model using the given seed. Node IDs follow the Quartz convention.
// Every socket of every node shares one copy of spec: the nodes differ only
// by their variation multiplier.
//
// All randomness is drawn up front from the seeded stream, so construction
// of each node is independent: large populations are built on all available
// CPUs, each worker filling its own index range, and the result is
// identical at any parallelism.
func New(size int, spec cpumodel.Spec, vm cpumodel.VariationModel, seed uint64) (*Cluster, error) {
	if size <= 0 {
		return nil, errors.New("cluster: size must be positive")
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x9E3779B97F4A7C15))
	etas := vm.SampleN(size, rng)
	c := &Cluster{nodes: make([]*node.Node, size)}
	build := func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			n, err := node.New(fmt.Sprintf("quartz%04d", i+1), &spec, etas[i])
			if err != nil {
				return err
			}
			c.nodes[i] = n
		}
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	const parallelMin = 4096 // goroutine fan-out only pays off on big pools
	if workers <= 1 || size < parallelMin {
		if err := build(0, size); err != nil {
			return nil, err
		}
		return c, nil
	}
	chunk := (size + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > size {
			hi = size
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = build(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Nodes returns the node list (callers must not mutate the slice).
func (c *Cluster) Nodes() []*node.Node { return c.nodes }

// FrequencySurvey runs the variation-control measurement of Figure 6: every
// node executes iterations of the given workload under the given per-socket
// power cap, and the achieved frequency is read back through the
// APERF/MPERF counters. Returns one achieved frequency (GHz) per node.
func (c *Cluster) FrequencySurvey(cfg kernel.Config, perSocketCap units.Power, iters int) ([]float64, error) {
	if iters <= 0 {
		iters = 1
	}
	ph := cpumodel.Phase{Work: cfg.CriticalWork(), Vector: cfg.Vector}
	out := make([]float64, len(c.nodes))
	for i, n := range c.nodes {
		prevLimit, err := n.PowerLimit()
		if err != nil {
			return nil, err
		}
		if _, err := n.SetPowerLimit(perSocketCap * node.SocketsPerNode); err != nil {
			return nil, err
		}
		_, a0, m0 := n.AchievedFrequency(0, 0)
		var pr node.PhaseResult
		for k := 0; k < iters; k++ {
			if _, err := n.PlanIteration(&ph); err != nil {
				return nil, err
			}
			if err := n.FinishIteration(&ph, 0, 1, &pr); err != nil {
				return nil, err
			}
		}
		f, _, _ := n.AchievedFrequency(a0, m0)
		out[i] = f.GHz()
		if _, err := n.SetPowerLimit(prevLimit); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Partition groups the surveyed frequencies into k clusters (the paper uses
// k=3: low, medium, high).
func Partition(freqsGHz []float64, k int) (*stats.Clustering, error) {
	return stats.KMeans1D(freqsGHz, k)
}

// SelectCluster returns the nodes belonging to the given cluster index of
// the partition (0 = lowest frequency). Index order follows the survey.
func (c *Cluster) SelectCluster(cl *stats.Clustering, idx int) []*node.Node {
	members := cl.Members(idx)
	out := make([]*node.Node, 0, len(members))
	for _, m := range members {
		if m >= 0 && m < len(c.nodes) {
			out = append(out, c.nodes[m])
		}
	}
	return out
}

// MediumNodes runs the full Figure 6 methodology — survey, 3-way k-means,
// pick the middle cluster — and returns those nodes along with the
// clustering for reporting. The survey workload is the most power-hungry
// configuration (the ridge intensity at full vector width), as in the
// paper, under 70 W per-socket caps.
func (c *Cluster) MediumNodes() ([]*node.Node, *stats.Clustering, error) {
	cfg := SurveyWorkload()
	freqs, err := c.FrequencySurvey(cfg, SurveyCap, 3)
	if err != nil {
		return nil, nil, err
	}
	cl, err := Partition(freqs, 3)
	if err != nil {
		return nil, nil, err
	}
	return c.SelectCluster(cl, 1), cl, nil
}

// SurveyCap is the per-socket cap of the Figure 6 survey.
const SurveyCap = 70 * units.Watt

// SurveyWorkload returns the most power-hungry kernel configuration, used
// for the Figure 6 survey.
func SurveyWorkload() kernel.Config {
	return kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1}
}

// ClonePool deep-copies a node pool — the cell-isolation primitive of the
// parallel evaluation grid. Every evaluation cell runs on its own pool
// snapshot, so concurrent cells never share MSR register files, RAPL
// accounting, or memoized operating points, and a cell that fails to
// restore its limits cannot corrupt any other cell. The copies' register
// words live in one flat arena (node.CloneInto); PoolState keeps that
// arena's pristine image to reset the pool in place.
func ClonePool(nodes []*node.Node) []*node.Node {
	pool, _ := cloneArena(nodes)
	return pool
}

// cloneArena clones src with every node's register words laid out
// contiguously in one backing array, which it returns alongside the pool.
func cloneArena(src []*node.Node) ([]*node.Node, []uint64) {
	total := 0
	for _, n := range src {
		total += n.WordCount()
	}
	pool := make([]*node.Node, len(src))
	words := make([]uint64, total)
	off := 0
	for i, n := range src {
		w := n.WordCount()
		pool[i] = n.CloneInto(words[off : off+w : off+w])
		off += w
	}
	return pool, words
}

// TotalTDP returns the summed TDP of the node set — the 216 kW reference of
// Table III for 900 nodes.
func TotalTDP(nodes []*node.Node) units.Power {
	var total units.Power
	for _, n := range nodes {
		total += n.TDP()
	}
	return total
}
