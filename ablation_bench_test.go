// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// bench runs a reduced experiment under the variant and reports the
// physically meaningful quantity through b.ReportMetric, so
// `go test -bench=Ablation -benchtime=1x` prints a compact ablation table.
package powerstack

import (
	"testing"
	"time"

	"powerstack/internal/bsp"
	"powerstack/internal/charz"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/geopm"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
	"powerstack/internal/units"
)

// ablationConfig is the imbalanced workload all ablations probe.
func ablationConfig() kernel.Config {
	return kernel.Config{Intensity: 8, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 3}
}

// BenchmarkAblationSpinVsIdleWait contrasts the spin-wait barrier model
// (MPI busy-poll, the paper's platform) with C-state idle waiting. The
// reported watts-per-node gap is the energy sink the waiting-rank axis
// exposes: with idle waiting, uncapped power is no longer insensitive to
// imbalance and the policies have far less waste to harvest at the source.
func BenchmarkAblationSpinVsIdleWait(b *testing.B) {
	for _, idle := range []bool{false, true} {
		name := "spin-wait"
		if idle {
			name = "idle-wait"
		}
		b.Run(name, func(b *testing.B) {
			var hostPower float64
			for i := 0; i < b.N; i++ {
				nodes := benchNodes(b, 8)
				for _, n := range nodes {
					n.IdleWait = idle
				}
				job, err := bsp.NewJob("ablate", ablationConfig(), nodes, 3)
				if err != nil {
					b.Fatal(err)
				}
				job.NoiseSigma = 0
				var energy units.Energy
				var elapsed time.Duration
				for k := 0; k < 10; k++ {
					ir, err := job.RunIteration()
					if err != nil {
						b.Fatal(err)
					}
					energy += ir.TotalEnergy
					elapsed += ir.Elapsed
				}
				hostPower = units.MeanPower(energy, elapsed).Watts() / 8
			}
			b.ReportMetric(hostPower, "W/node")
		})
	}
}

// BenchmarkAblationBalancerGain sweeps the balancer's proportional gain
// and reports the iteration at which it converged: too-small gains crawl,
// too-large gains overshoot and re-trigger adjustments.
func BenchmarkAblationBalancerGain(b *testing.B) {
	for _, gain := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		b.Run(gainName(gain), func(b *testing.B) {
			var converged float64
			for i := 0; i < b.N; i++ {
				// Identical parts isolate the gain's effect from
				// hardware variation.
				nodes := uniformNodes(b, 8)
				job, err := bsp.NewJob("ablate", ablationConfig(), nodes, 3)
				if err != nil {
					b.Fatal(err)
				}
				job.NoiseSigma = 0
				bal := geopm.NewPowerBalancer()
				bal.Gain = gain
				ctl, err := geopm.NewController(job, bal, units.Power(8)*240*units.Watt)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := ctl.Run(60)
				if err != nil {
					b.Fatal(err)
				}
				if rep.ConvergedAt < 0 {
					converged = 60
				} else {
					converged = float64(rep.ConvergedAt)
				}
			}
			b.ReportMetric(converged, "iters-to-converge")
		})
	}
}

// uniformNodes builds identical (eta=1) hosts.
func uniformNodes(b *testing.B, n int) []*node.Node {
	b.Helper()
	spec := cpumodel.Quartz()
	out := make([]*node.Node, n)
	for i := range out {
		nd, err := node.New("uniform", &spec, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = nd
	}
	return out
}

func gainName(g float64) string {
	switch g {
	case 0.1:
		return "gain-0.10"
	case 0.25:
		return "gain-0.25"
	case 0.5:
		return "gain-0.50"
	case 0.75:
		return "gain-0.75"
	default:
		return "gain-0.90"
	}
}

// BenchmarkAblationMinPowerFraction sweeps the balancer's headroom guard
// and reports the characterized needed power of a waiting host: the guard
// trades harvested power (lower needed => bigger policy savings) against
// responsiveness margin. 0.82 calibrates to the paper's Figure 5.
func BenchmarkAblationMinPowerFraction(b *testing.B) {
	for _, frac := range []float64{0.70, 0.82, 0.95} {
		b.Run(fracName(frac), func(b *testing.B) {
			var needed float64
			for i := 0; i < b.N; i++ {
				nodes := benchNodes(b, 8)
				job, err := bsp.NewJob("ablate", ablationConfig(), nodes, 3)
				if err != nil {
					b.Fatal(err)
				}
				job.NoiseSigma = 0
				bal := geopm.NewPowerBalancer()
				bal.MinPowerFraction = frac
				ctl, err := geopm.NewController(job, bal, units.Power(8)*240*units.Watt)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := ctl.Run(50)
				if err != nil {
					b.Fatal(err)
				}
				var sum float64
				var n int
				for _, h := range rep.Hosts {
					if h.Role == bsp.Waiting {
						sum += h.FinalLimit.Watts()
						n++
					}
				}
				needed = sum / float64(n)
			}
			b.ReportMetric(needed, "W/waiting-node")
		})
	}
}

func fracName(f float64) string {
	switch f {
	case 0.70:
		return "guard-0.70"
	case 0.82:
		return "guard-0.82"
	default:
		return "guard-0.95"
	}
}

// BenchmarkAblationFreqExponent sweeps the dynamic-power frequency
// exponent and reports the achieved frequency of the survey workload under
// a 70 W cap: steeper exponents make caps cost less frequency, flattening
// every policy effect in the evaluation.
func BenchmarkAblationFreqExponent(b *testing.B) {
	for _, alpha := range []float64{2.0, 2.4, 3.0} {
		b.Run(alphaName(alpha), func(b *testing.B) {
			spec := cpumodel.Quartz()
			spec.FreqExponent = alpha
			s := cpumodel.NewSocket(&spec, 1)
			cfg := cluster.SurveyWorkload()
			ph := cpumodel.Phase{Work: cfg.CriticalWork(), Vector: cfg.Vector}
			var ghz float64
			for i := 0; i < b.N; i++ {
				ghz = s.FrequencyForCap(ph, cluster.SurveyCap).GHz()
			}
			b.ReportMetric(ghz, "GHz@70W")
		})
	}
}

func alphaName(a float64) string {
	switch a {
	case 2.0:
		return "alpha-2.0"
	case 2.4:
		return "alpha-2.4"
	default:
		return "alpha-3.0"
	}
}

// BenchmarkAblationMediumClusterSelection quantifies why the paper (and
// this reproduction) controls hardware variation: it reports the spread
// between the most and least demanding waiting hosts in a characterization
// run, with and without the Figure 6 medium-cluster selection. Large
// spread inflates the per-role needed power and erases the policies'
// redistribution signal.
func BenchmarkAblationMediumClusterSelection(b *testing.B) {
	for _, medium := range []bool{false, true} {
		name := "all-nodes"
		if medium {
			name = "medium-cluster"
		}
		b.Run(name, func(b *testing.B) {
			var spread float64
			for i := 0; i < b.N; i++ {
				c, err := cluster.New(120, cpumodel.Quartz(), cpumodel.QuartzVariation(), 7)
				if err != nil {
					b.Fatal(err)
				}
				pool := c.Nodes()
				if medium {
					m, _, err := c.MediumNodes()
					if err != nil {
						b.Fatal(err)
					}
					pool = m
				}
				if len(pool) > 16 {
					pool = pool[:16]
				}
				e, err := charz.Characterize(ablationConfig(), pool, charz.Options{
					MonitorIters: 5, BalancerIters: 40, Seed: 2, NoiseSigma: 0,
				})
				if err != nil {
					b.Fatal(err)
				}
				spread = e.NeededMax.Watts() - e.NeededMin.Watts()
			}
			b.ReportMetric(spread, "W-needed-spread")
		})
	}
}
