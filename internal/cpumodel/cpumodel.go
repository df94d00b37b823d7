// Package cpumodel is the analytic power/performance model of one Broadwell
// socket of the Quartz system (Table I). It closes the loop between the
// RAPL power limit, the achievable core frequency, and the roofline-bounded
// throughput of the synthetic kernel:
//
//	cap (W) --> frequency (GHz) --> throughput (GFLOPS) --> time & energy
//
// Model form: socket power is a static floor plus dynamic power that scales
// with frequency as f^alpha and with the utilization of the FP and memory
// pipes,
//
//	P(f) = P_static + eta * (f/f_base)^alpha *
//	       (C_base + C_fpu*vecScale*U_fpu + C_mem*U_mem)
//
// where eta is the per-part manufacturing-variation multiplier behind
// Figure 6. The coefficients are calibrated so the uncapped per-node power
// of the Figure 4 heatmap lands in the paper's 209-232 W band with its peak
// at the ridge intensity (~8 FLOPs/byte) — see DESIGN.md for the
// calibration targets.
package cpumodel

import (
	"math"
	"time"

	"powerstack/internal/kernel"
	"powerstack/internal/roofline"
	"powerstack/internal/units"
)

// Spec holds the socket-level model parameters.
type Spec struct {
	Name string
	// ActiveCores is the number of cores running application ranks (the
	// experiments use 34 of 36 node cores, i.e. 17 per socket).
	ActiveCores int

	BaseFreq units.Frequency // P1, guaranteed all-core frequency
	MinFreq  units.Frequency // lowest P-state RAPL clamping reaches
	MaxTurbo units.Frequency // all-core turbo ceiling
	// FreqStep is the P-state granularity (100 MHz bins on Intel).
	FreqStep units.Frequency

	TDP           units.Power // PL1 default and thermal design power
	MinPowerLimit units.Power // lowest settable RAPL limit (Table I: 68 W)

	// StaticPower is the frequency-independent floor (uncore, leakage).
	StaticPower units.Power

	// Dynamic-power coefficients, in watts of whole-socket dynamic power
	// at the base frequency and full utilization of the named resource.
	CBase float64 // active cores, clocks, front end
	CFPU  float64 // floating-point/vector datapath
	CMem  float64 // memory subsystem traffic
	CSpin float64 // extra issue activity of a spin-wait loop

	// FreqExponent is alpha in the dynamic-power law (between quadratic
	// voltage scaling and cubic classical scaling).
	FreqExponent float64

	// DRAMIdlePower and DRAMMaxPower bound the DRAM domain's draw per
	// socket (refresh/background vs all channels streaming). The DRAM
	// domain is measurable through RAPL but not cappable on this
	// platform; the paper scopes its control study to CPU power.
	DRAMIdlePower units.Power
	DRAMMaxPower  units.Power

	// SocketMemBandwidth is the aggregate streaming bandwidth of the
	// socket's memory channels at the base frequency, shared by all
	// active cores.
	SocketMemBandwidth units.BytesPerSecond
	// MemFreqSensitivity is the fraction of that bandwidth which scales
	// with core frequency.
	MemFreqSensitivity float64

	// Platform provides the per-core compute ceilings.
	Platform roofline.Platform
}

// Quartz returns the calibrated model of one Xeon E5-2695 v4 socket of the
// LLNL Quartz system, matching Table I (120 W TDP, 68 W minimum RAPL limit,
// 2.1 GHz base frequency).
func Quartz() Spec {
	return Spec{
		Name:               "Xeon E5-2695 v4 (Quartz)",
		ActiveCores:        17,
		BaseFreq:           2.1 * units.Gigahertz,
		MinFreq:            1.2 * units.Gigahertz,
		MaxTurbo:           2.6 * units.Gigahertz,
		FreqStep:           100 * units.Megahertz,
		TDP:                120 * units.Watt,
		MinPowerLimit:      68 * units.Watt,
		StaticPower:        32 * units.Watt,
		CBase:              38.3,
		CFPU:               6.0,
		CMem:               6.0,
		CSpin:              6.0,
		FreqExponent:       2.4,
		DRAMIdlePower:      5 * units.Watt,
		DRAMMaxPower:       18 * units.Watt,
		SocketMemBandwidth: 98 * units.GBPerSecond,
		MemFreqSensitivity: 0.15,
		Platform:           roofline.QuartzBroadwell(),
	}
}

// Phase describes the per-core work mix the socket is executing: the work
// one rank performs per iteration and the vector width it was compiled for.
type Phase struct {
	Work   kernel.Work
	Vector kernel.Vector
}

// Socket is one physical socket instance: the platform spec plus its
// manufacturing-variation multiplier. Eta scales dynamic power; inefficient
// parts (eta > 1) reach lower frequencies under the same cap.
//
// Every socket of a pool points at one Spec: the parts are identical but
// for eta, so the platform constants are stored once and only eta is per
// socket. A Spec reachable from a socket is immutable — nothing may write
// its fields — which is what makes a plain copy of a Socket an independent
// clone; node cloning relies on that.
type Socket struct {
	Spec *Spec
	Eta  float64
}

// NewSocket builds a socket of the shared spec with the given variation
// multiplier; eta <= 0 is replaced with 1 (a nominal part). The socket
// keeps the pointer, so spec must not be modified afterwards.
func NewSocket(spec *Spec, eta float64) Socket {
	if eta <= 0 {
		eta = 1
	}
	return Socket{Spec: spec, Eta: eta}
}

// fhat returns the normalized frequency f/f_base.
func (s *Socket) fhat(f units.Frequency) float64 {
	return f.Hz() / s.Spec.BaseFreq.Hz()
}

// MemRoofPerCore returns the contended per-core memory bandwidth at
// frequency f: the socket aggregate divided by the active cores, with the
// weak frequency dependence of the uncore.
func (s *Socket) MemRoofPerCore(f units.Frequency) units.BytesPerSecond {
	if s.Spec.ActiveCores <= 0 {
		return 0
	}
	scale := (1 - s.Spec.MemFreqSensitivity) + s.Spec.MemFreqSensitivity*s.fhat(f)
	return units.BytesPerSecond(float64(s.Spec.SocketMemBandwidth) * scale / float64(s.Spec.ActiveCores))
}

// ComputeRoofPerCore returns the per-core peak FLOP rate for the vector
// width at frequency f.
func (s *Socket) ComputeRoofPerCore(v kernel.Vector, f units.Frequency) units.FlopsPerSecond {
	return s.Spec.Platform.ComputeRoof(v, f)
}

// PowerAt returns the sustained socket power while executing the phase at
// frequency f.
func (s *Socket) PowerAt(ph Phase, f units.Frequency) units.Power {
	_, u := s.roof(ph, f)
	return s.dynamic(s.activity(ph, u), f)
}

// roof evaluates the roofline once: one iteration of the phase takes
// max(flops/computeRoof, bytes/memRoof) at frequency f, with the contended
// per-core memory bandwidth, and each pipe is busy for its share of that
// time. Zero work, or a non-positive roof, takes zero time at zero
// utilization.
func (s *Socket) roof(ph Phase, f units.Frequency) (time.Duration, roofline.Utilization) {
	var tComp, tMem float64
	if ph.Work.Flops > 0 {
		roof := float64(s.ComputeRoofPerCore(ph.Vector, f))
		if roof <= 0 {
			return 0, roofline.Utilization{}
		}
		tComp = float64(ph.Work.Flops) / roof
	}
	if ph.Work.Traffic > 0 {
		roof := float64(s.MemRoofPerCore(f))
		if roof <= 0 {
			return 0, roofline.Utilization{}
		}
		tMem = float64(ph.Work.Traffic) / roof
	}
	dur := time.Duration(math.Max(tComp, tMem) * float64(time.Second))
	var u roofline.Utilization
	if total := dur.Seconds(); total > 0 {
		if ph.Work.Flops > 0 {
			u.FPU = tComp / total
		}
		if ph.Work.Traffic > 0 {
			u.Mem = tMem / total
		}
	}
	return dur, u
}

// activity returns the phase's dynamic-power activity factor d at pipe
// utilizations u — the utilization-weighted sum of the dynamic
// coefficients, independent of eta.
func (s *Socket) activity(ph Phase, u roofline.Utilization) float64 {
	vec := ph.Vector.PowerScale()
	// Narrower vectors toggle less of the core pipeline every cycle, so
	// part of the base switching power scales with vector width too —
	// this is what makes the xmm/scalar rows of Table II the low-power
	// workloads. The ymm reference width leaves CBase unscaled.
	base := s.Spec.CBase * (0.75 + 0.25*vec)
	return base + s.Spec.CFPU*vec*u.FPU + s.Spec.CMem*u.Mem
}

// Operate resolves the phase's iteration time, sustained power, and pipe
// utilizations at frequency f from one roofline evaluation. The results
// are bit-identical to the separate time, power and utilization oracles
// the tests keep (same operands, same operation order — pinned by
// TestOperateMatchesSeparate); node.resolve uses it for the operating
// point it outputs.
func (s *Socket) Operate(ph Phase, f units.Frequency) (time.Duration, units.Power, roofline.Utilization) {
	dur, u := s.roof(ph, f)
	return dur, s.dynamic(s.activity(ph, u), f), u
}

// SpinPowerAt returns the socket power while all cores poll at a barrier at
// frequency f. A spin loop keeps the front end fully busy without touching
// the FP or memory pipes, so it burns nearly as much power as real work —
// the energy sink the paper's waiting-rank axis exposes (Figure 2).
func (s *Socket) SpinPowerAt(f units.Frequency) units.Power {
	return s.dynamic(s.Spec.CBase+s.Spec.CSpin, f)
}

// DRAMPowerAt returns the DRAM-domain power at the given memory-pipe
// utilization: background refresh plus traffic-proportional switching.
func (s *Socket) DRAMPowerAt(memUtil float64) units.Power {
	if memUtil < 0 {
		memUtil = 0
	}
	if memUtil > 1 {
		memUtil = 1
	}
	return s.Spec.DRAMIdlePower + units.Power(memUtil*float64(s.Spec.DRAMMaxPower-s.Spec.DRAMIdlePower))
}

// IdleWaitPower returns the socket power if waiting ranks blocked in a
// C-state instead of spin-polling: cores clock-gate, leaving the static
// floor plus residual uncore activity. This is the counterfactual for the
// spin-wait ablation — with idle waiting, the Figure 4 heatmap would no
// longer be insensitive to imbalance and the waste the adaptive policies
// harvest would largely vanish at the source.
func (s *Socket) IdleWaitPower() units.Power {
	const idleResidualFraction = 0.12 // uncore + wakeup timers
	return s.Spec.StaticPower + units.Power(s.Eta*idleResidualFraction*s.Spec.CBase)
}

func (s *Socket) dynamic(d float64, f units.Frequency) units.Power {
	return s.Spec.power(s.Eta, math.Pow(s.fhat(f), s.Spec.FreqExponent), d)
}

// power is the socket power law with the frequency term pow =
// fhat(f)^alpha already evaluated: the static floor plus eta-scaled dynamic
// power. Every model power evaluation ends here, which is what lets a
// CapTable precompute pow and d once per spec and still reproduce any
// node's power bit for bit.
func (sp *Spec) power(eta, pow, d float64) units.Power {
	return sp.StaticPower + units.Power(eta*pow*d)
}

// FrequencyForCap returns the achieved frequency at which the phase's
// sustained power meets the cap — the steady state RAPL clamping converges
// to by duty-cycling between adjacent P-states, hence a continuous value.
// If even the lowest P-state exceeds the cap, the lowest P-state is
// returned (RAPL cannot scale below it); callers observe the overshoot via
// PowerAt.
func (s *Socket) FrequencyForCap(ph Phase, cap units.Power) units.Frequency {
	lo, hi := s.Spec.MinFreq, s.Spec.MaxTurbo
	if s.PowerAt(ph, hi) <= cap {
		return hi
	}
	if s.PowerAt(ph, lo) > cap {
		return lo
	}
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		if s.PowerAt(ph, mid) <= cap {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
