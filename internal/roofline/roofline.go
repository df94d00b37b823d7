// Package roofline implements the roofline performance model [Williams et
// al., CACM'09] with the ceilings measured for the paper's target platform
// (Figure 3, produced by Intel Advisor on a Quartz Broadwell core). The
// model answers two questions the stack needs constantly:
//
//   - what throughput can a kernel of a given computational intensity and
//     vector width attain at a given frequency, and
//   - how long does a given amount of work (bytes + FLOPs) take.
//
// The compute ceilings scale linearly with core frequency; the memory
// ceilings are mostly frequency-insensitive (DRAM channels do not slow down
// with the cores), which is precisely why memory-bound phases tolerate low
// power caps — the effect the application-aware policies exploit.
package roofline

import (
	"fmt"

	"powerstack/internal/kernel"
	"powerstack/internal/units"
)

// Ceiling is one named roof of the model.
type Ceiling struct {
	Name string
	// Compute is the peak throughput for compute roofs (zero for memory
	// roofs).
	Compute units.FlopsPerSecond
	// Bandwidth is the peak traffic rate for memory roofs (zero for
	// compute roofs).
	Bandwidth units.BytesPerSecond
}

// Platform holds the measured single-core ceilings of the target system at
// the reference frequency, as reported in Figure 3.
type Platform struct {
	Name string
	// RefFreq is the frequency at which the ceilings were measured.
	RefFreq units.Frequency

	// Memory roofs.
	L1Bandwidth   units.BytesPerSecond
	L2Bandwidth   units.BytesPerSecond
	L3Bandwidth   units.BytesPerSecond
	DRAMBandwidth units.BytesPerSecond

	// Compute roofs (double precision unless noted).
	VectorFMASP units.FlopsPerSecond
	VectorFMADP units.FlopsPerSecond
	VectorAddSP units.FlopsPerSecond
	VectorAddDP units.FlopsPerSecond
	ScalarAddDP units.FlopsPerSecond

	// MemFreqSensitivity is the fraction of DRAM bandwidth that scales
	// with core frequency (uncore/prefetch effects); the rest is
	// frequency-independent. Broadwell measurements put this near 0.15.
	MemFreqSensitivity float64
}

// QuartzBroadwell returns the Figure 3 platform: a single core of the
// dual-socket Xeon E5-2695 v4 node of LLNL Quartz (Table I).
func QuartzBroadwell() Platform {
	return Platform{
		Name:          "Quartz Xeon E5-2695 v4 (Broadwell)",
		RefFreq:       2.1 * units.Gigahertz,
		L1Bandwidth:   314.65 * units.GBPerSecond,
		L2Bandwidth:   84.5 * units.GBPerSecond,
		L3Bandwidth:   35.18 * units.GBPerSecond,
		DRAMBandwidth: 12.44 * units.GBPerSecond,
		VectorFMASP:   61.98 * units.Gigaflops,
		VectorFMADP:   38.49 * units.Gigaflops,
		VectorAddSP:   55.24 * units.Gigaflops,
		VectorAddDP:   8.79 * units.Gigaflops,
		ScalarAddDP:   2.73 * units.Gigaflops,

		MemFreqSensitivity: 0.15,
	}
}

// Ceilings lists all roofs of the platform at the reference frequency, in
// the order Figure 3 draws them.
func (p Platform) Ceilings() []Ceiling {
	return []Ceiling{
		{Name: "L1 Bandwidth", Bandwidth: p.L1Bandwidth},
		{Name: "L2 Bandwidth", Bandwidth: p.L2Bandwidth},
		{Name: "L3 Bandwidth", Bandwidth: p.L3Bandwidth},
		{Name: "DRAM Bandwidth", Bandwidth: p.DRAMBandwidth},
		{Name: "SP Vector FMA Peak", Compute: p.VectorFMASP},
		{Name: "DP Vector FMA Peak", Compute: p.VectorFMADP},
		{Name: "SP Vector Add Peak", Compute: p.VectorAddSP},
		{Name: "DP Vector Add Peak", Compute: p.VectorAddDP},
		{Name: "DP Scalar Add Peak", Compute: p.ScalarAddDP},
	}
}

// ComputeRoof returns the peak double-precision FMA throughput for the
// given vector width at the given frequency. The synthetic kernel's compute
// phase is an FMA chain, so the FMA roofs are the binding ceilings.
func (p Platform) ComputeRoof(v kernel.Vector, f units.Frequency) units.FlopsPerSecond {
	scale := v.ThroughputScale() * f.Hz() / p.RefFreq.Hz()
	return units.FlopsPerSecond(float64(p.VectorFMADP) * scale)
}

// MemoryRoof returns the DRAM streaming bandwidth available to one core at
// the given frequency. Only MemFreqSensitivity of the bandwidth scales with
// frequency.
func (p Platform) MemoryRoof(f units.Frequency) units.BytesPerSecond {
	fhat := f.Hz() / p.RefFreq.Hz()
	scale := (1 - p.MemFreqSensitivity) + p.MemFreqSensitivity*fhat
	return units.BytesPerSecond(float64(p.DRAMBandwidth) * scale)
}

// RidgeIntensity returns the FLOPs-per-byte at which the compute roof meets
// the DRAM roof for the given vector width and frequency — the intensity of
// peak power draw in Figure 4.
func (p Platform) RidgeIntensity(v kernel.Vector, f units.Frequency) float64 {
	mem := float64(p.MemoryRoof(f))
	if mem == 0 {
		return 0
	}
	return float64(p.ComputeRoof(v, f)) / mem
}

// Attainable returns the roofline-attainable throughput for a kernel of the
// given intensity: min(compute roof, intensity x memory roof).
func (p Platform) Attainable(intensity float64, v kernel.Vector, f units.Frequency) units.FlopsPerSecond {
	comp := float64(p.ComputeRoof(v, f))
	mem := intensity * float64(p.MemoryRoof(f))
	if mem < comp {
		return units.FlopsPerSecond(mem)
	}
	return units.FlopsPerSecond(comp)
}

// Utilization reports how busy the compute and memory pipes are while
// executing the given work: the fraction of the iteration each pipe is the
// active resource. The bottleneck pipe has utilization 1; the other is
// bounded by the work ratio. These feed the power model — power peaks at
// the ridge point where both pipes saturate.
type Utilization struct {
	FPU float64
	Mem float64
}

// Point is one kernel measurement overlaid on the roofline plot.
type Point struct {
	Label     string
	Intensity float64
	Achieved  units.FlopsPerSecond
}

// KernelSweep evaluates the attainable throughput of the synthetic kernel
// across the Figure 3 intensity range for the given vector width, producing
// the colored dots of the roofline plot.
func (p Platform) KernelSweep(v kernel.Vector, f units.Frequency) []Point {
	intensities := []float64{0.007, 0.04, 0.1, 0.25, 0.4, 0.7, 1, 2, 4, 7, 8, 10, 16, 32, 40}
	pts := make([]Point, 0, len(intensities))
	for _, in := range intensities {
		pts = append(pts, Point{
			Label:     fmt.Sprintf("%s i=%g", v, in),
			Intensity: in,
			Achieved:  p.Attainable(in, v, f),
		})
	}
	return pts
}
