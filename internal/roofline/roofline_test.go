package roofline

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"powerstack/internal/kernel"
	"powerstack/internal/units"
)

var plat = QuartzBroadwell()

// The per-core roofline bounds below are the reference the socket model
// (cpumodel.Socket.TimeFor, Utilization) evaluates on its own; only the
// tests call them.

// TimeFor returns how long one core needs to complete the given work at the
// given width and frequency: the classic roofline execution-time bound
// max(flops/computeRoof, bytes/memoryRoof). Zero-FLOP work is purely
// memory-bound; zero work takes zero time.
func (p Platform) TimeFor(w kernel.Work, v kernel.Vector, f units.Frequency) time.Duration {
	var tComp, tMem float64
	if w.Flops > 0 {
		roof := float64(p.ComputeRoof(v, f))
		if roof <= 0 {
			return 0
		}
		tComp = float64(w.Flops) / roof
	}
	if w.Traffic > 0 {
		roof := float64(p.MemoryRoof(f))
		if roof <= 0 {
			return 0
		}
		tMem = float64(w.Traffic) / roof
	}
	t := tComp
	if tMem > t {
		t = tMem
	}
	return time.Duration(t * float64(time.Second))
}

// UtilizationFor returns pipeline utilizations for the work at frequency f.
// For zero work it returns zero utilization.
func (p Platform) UtilizationFor(w kernel.Work, v kernel.Vector, f units.Frequency) Utilization {
	total := p.TimeFor(w, v, f).Seconds()
	if total <= 0 {
		return Utilization{}
	}
	var u Utilization
	if w.Flops > 0 {
		u.FPU = float64(w.Flops) / float64(p.ComputeRoof(v, f)) / total
	}
	if w.Traffic > 0 {
		u.Mem = float64(w.Traffic) / float64(p.MemoryRoof(f)) / total
	}
	return u
}

func TestCeilingsMatchFigure3(t *testing.T) {
	cs := plat.Ceilings()
	if len(cs) != 9 {
		t.Fatalf("ceiling count = %d, want 9", len(cs))
	}
	byName := map[string]Ceiling{}
	for _, c := range cs {
		byName[c.Name] = c
	}
	if got := byName["DRAM Bandwidth"].Bandwidth.GBs(); math.Abs(got-12.44) > 1e-9 {
		t.Errorf("DRAM = %v GB/s, want 12.44", got)
	}
	if got := byName["L1 Bandwidth"].Bandwidth.GBs(); math.Abs(got-314.65) > 1e-9 {
		t.Errorf("L1 = %v GB/s", got)
	}
	if got := byName["DP Vector FMA Peak"].Compute.GFLOPS(); math.Abs(got-38.49) > 1e-9 {
		t.Errorf("DP FMA = %v GFLOPS", got)
	}
	if got := byName["DP Scalar Add Peak"].Compute.GFLOPS(); math.Abs(got-2.73) > 1e-9 {
		t.Errorf("scalar add = %v GFLOPS", got)
	}
}

func TestComputeRoofScalesWithFrequency(t *testing.T) {
	base := plat.ComputeRoof(kernel.YMM, plat.RefFreq)
	if math.Abs(base.GFLOPS()-38.49) > 1e-9 {
		t.Errorf("ymm roof at ref = %v", base)
	}
	half := plat.ComputeRoof(kernel.YMM, plat.RefFreq/2)
	if math.Abs(half.GFLOPS()-38.49/2) > 1e-9 {
		t.Errorf("ymm roof at half ref = %v", half)
	}
}

func TestComputeRoofScalesWithVector(t *testing.T) {
	ymm := plat.ComputeRoof(kernel.YMM, plat.RefFreq)
	xmm := plat.ComputeRoof(kernel.XMM, plat.RefFreq)
	sca := plat.ComputeRoof(kernel.Scalar, plat.RefFreq)
	if math.Abs(float64(xmm)/float64(ymm)-0.5) > 1e-9 {
		t.Errorf("xmm/ymm = %v, want 0.5", float64(xmm)/float64(ymm))
	}
	if math.Abs(float64(sca)/float64(ymm)-0.25) > 1e-9 {
		t.Errorf("scalar/ymm = %v, want 0.25", float64(sca)/float64(ymm))
	}
}

func TestMemoryRoofWeaklyFrequencySensitive(t *testing.T) {
	ref := plat.MemoryRoof(plat.RefFreq)
	if math.Abs(ref.GBs()-12.44) > 1e-9 {
		t.Errorf("mem roof at ref = %v", ref)
	}
	half := plat.MemoryRoof(plat.RefFreq / 2)
	ratio := float64(half) / float64(ref)
	// Halving frequency should cost far less than half the bandwidth.
	if ratio < 0.85 || ratio >= 1 {
		t.Errorf("bandwidth ratio at half freq = %v, want [0.85, 1)", ratio)
	}
}

func TestRidgeIntensityNearMidGrid(t *testing.T) {
	// The paper's Figure 4 peak power occurs at intensity ~8; the ridge
	// point for ymm FMA should land in the same region of the grid.
	ridge := plat.RidgeIntensity(kernel.YMM, plat.RefFreq)
	if ridge < 2 || ridge > 8 {
		t.Errorf("ridge = %v, want within [2, 8]", ridge)
	}
	// Narrower vectors lower the compute roof and hence the ridge.
	if rx := plat.RidgeIntensity(kernel.XMM, plat.RefFreq); rx >= ridge {
		t.Errorf("xmm ridge %v >= ymm ridge %v", rx, ridge)
	}
}

func TestAttainablePiecewise(t *testing.T) {
	f := plat.RefFreq
	// Far below the ridge: memory-bound, throughput = I * BW.
	low := plat.Attainable(0.25, kernel.YMM, f)
	want := 0.25 * float64(plat.MemoryRoof(f))
	if math.Abs(float64(low)-want) > 1e-3 {
		t.Errorf("attainable(0.25) = %v, want %v", float64(low), want)
	}
	// Far above the ridge: compute-bound, throughput = peak.
	high := plat.Attainable(32, kernel.YMM, f)
	if math.Abs(high.GFLOPS()-38.49) > 1e-9 {
		t.Errorf("attainable(32) = %v", high)
	}
}

func TestTimeForRoundTrip(t *testing.T) {
	f := plat.RefFreq
	w := kernel.Work{Traffic: units.Bytes(12.44e9), Flops: 0}
	got := plat.TimeFor(w, kernel.YMM, f)
	if math.Abs(got.Seconds()-1) > 1e-9 {
		t.Errorf("streaming 12.44 GB = %v, want 1 s", got)
	}
	w = kernel.Work{Traffic: 0, Flops: units.Flops(38.49e9)}
	got = plat.TimeFor(w, kernel.YMM, f)
	if math.Abs(got.Seconds()-1) > 1e-9 {
		t.Errorf("38.49 GFLOP at peak = %v, want 1 s", got)
	}
	if got := plat.TimeFor(kernel.Work{}, kernel.YMM, f); got != 0 {
		t.Errorf("zero work time = %v", got)
	}
}

func TestTimeForTakesMax(t *testing.T) {
	f := plat.RefFreq
	// Work that needs 2 s of memory and 1 s of compute: memory-bound.
	w := kernel.Work{
		Traffic: units.Bytes(2 * 12.44e9),
		Flops:   units.Flops(38.49e9),
	}
	got := plat.TimeFor(w, kernel.YMM, f)
	if math.Abs(got.Seconds()-2) > 1e-6 {
		t.Errorf("time = %v, want 2 s", got)
	}
}

func TestUtilizationAtRidge(t *testing.T) {
	f := plat.RefFreq
	ridge := plat.RidgeIntensity(kernel.YMM, f)
	traffic := units.Bytes(1e9)
	w := kernel.Work{Traffic: traffic, Flops: units.Flops(ridge * float64(traffic))}
	u := plat.UtilizationFor(w, kernel.YMM, f)
	if math.Abs(u.FPU-1) > 1e-6 || math.Abs(u.Mem-1) > 1e-6 {
		t.Errorf("utilization at ridge = %+v, want both 1", u)
	}
}

func TestUtilizationBounds(t *testing.T) {
	f := plat.RefFreq
	// Memory-bound: mem pipe saturated, FPU partially busy.
	w := kernel.Work{Traffic: 1e9, Flops: units.Flops(0.25e9)}
	u := plat.UtilizationFor(w, kernel.YMM, f)
	if math.Abs(u.Mem-1) > 1e-6 {
		t.Errorf("mem util = %v, want 1", u.Mem)
	}
	if u.FPU <= 0 || u.FPU >= 0.2 {
		t.Errorf("fpu util = %v, want small positive", u.FPU)
	}
	if got := plat.UtilizationFor(kernel.Work{}, kernel.YMM, f); got.FPU != 0 || got.Mem != 0 {
		t.Errorf("zero work utilization = %+v", got)
	}
}

func TestKernelSweepUnderRoofs(t *testing.T) {
	pts := plat.KernelSweep(kernel.YMM, plat.RefFreq)
	if len(pts) == 0 {
		t.Fatal("empty sweep")
	}
	for _, pt := range pts {
		if float64(pt.Achieved) > float64(plat.VectorFMADP)+1e-6 {
			t.Errorf("point %s above compute roof", pt.Label)
		}
		memBound := pt.Intensity * float64(plat.DRAMBandwidth)
		if float64(pt.Achieved) > memBound+1e-6 && float64(pt.Achieved) > float64(plat.VectorFMADP)-1e-6 {
			continue // at the compute roof, fine
		}
		if float64(pt.Achieved) > memBound+1e-6 {
			t.Errorf("point %s above memory roof", pt.Label)
		}
	}
}

// Property: attainable throughput is monotone non-decreasing in intensity
// and in frequency.
func TestAttainableMonotoneProperty(t *testing.T) {
	f := func(i1, i2 uint16, fr1, fr2 uint8) bool {
		a, b := float64(i1)/100, float64(i2)/100
		if a > b {
			a, b = b, a
		}
		fa := units.Frequency(1e9 + float64(fr1)*1e7)
		fb := units.Frequency(1e9 + float64(fr2)*1e7)
		if fa > fb {
			fa, fb = fb, fa
		}
		// Monotone in intensity at fixed frequency.
		if plat.Attainable(a, kernel.YMM, fa) > plat.Attainable(b, kernel.YMM, fa)+1 {
			return false
		}
		// Monotone in frequency at fixed intensity.
		return plat.Attainable(b, kernel.YMM, fa) <= plat.Attainable(b, kernel.YMM, fb)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: TimeFor decreases (or holds) as frequency rises.
func TestTimeForMonotoneInFrequency(t *testing.T) {
	f := func(trafficRaw, flopsRaw uint32, fr1, fr2 uint8) bool {
		w := kernel.Work{
			Traffic: units.Bytes(float64(trafficRaw)),
			Flops:   units.Flops(float64(flopsRaw)),
		}
		fa := units.Frequency(1e9 + float64(fr1)*1e7)
		fb := units.Frequency(1e9 + float64(fr2)*1e7)
		if fa > fb {
			fa, fb = fb, fa
		}
		ta := plat.TimeFor(w, kernel.YMM, fa)
		tb := plat.TimeFor(w, kernel.YMM, fb)
		return tb <= ta+time.Nanosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
