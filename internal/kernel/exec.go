package kernel

// This file contains a real, runnable implementation of the kernel's
// compute phase, so that examples and benchmarks exercise genuine CPU work
// with a controllable FLOPs-per-byte ratio. Pure Go cannot force particular
// SIMD registers, so the Vector axis is expressed through loop structure
// (independent accumulator lanes matching the vector width), which gives
// the compiler the same ILP the hand-vectorized C kernel has.

// DefaultBufferElems sizes working buffers so one Run streams well beyond
// last-level cache, as the paper's kernel does (float64 elements).
const DefaultBufferElems = 1 << 21 // 16 MiB

// MakeBuffer allocates and initializes a working buffer for Run. Values are
// kept near 1.0 so repeated FMA chains stay in normal float range.
func MakeBuffer(n int) []float64 {
	buf := make([]float64, n)
	x := 1.0
	for i := range buf {
		// A cheap LCG-ish perturbation around 1.0; exact values are
		// irrelevant, they only need to defeat constant folding.
		x = x*1.000000119 + 1e-9
		if x > 2 {
			x = 1
		}
		buf[i] = x
	}
	return buf
}

// Run streams once over buf, performing approximately
// cfg.Intensity * 8 floating-point operations per element (8 bytes each),
// structured into cfg.Vector.Lanes() independent accumulator chains. It
// returns a checksum that callers must consume (e.g. assign to a sink) to
// prevent dead-code elimination.
func Run(cfg Config, buf []float64) float64 {
	if len(buf) == 0 {
		return 0
	}
	flopsPerElem := cfg.Intensity * 8
	switch cfg.Vector.Lanes() {
	case 2:
		return run2(buf, flopsPerElem)
	case 4:
		return run4(buf, flopsPerElem)
	default:
		return run1(buf, flopsPerElem)
	}
}

// fmaCount converts FLOPs per element into FMA operations per element
// (one FMA = 2 FLOPs), with a floor of zero for pure streaming.
func fmaCount(flopsPerElem float64) int {
	n := int(flopsPerElem / 2)
	if n < 0 {
		return 0
	}
	return n
}

func run1(buf []float64, flopsPerElem float64) float64 {
	fmas := fmaCount(flopsPerElem)
	const c0 = 1.0000001
	const c1 = 1e-9
	acc := 0.0
	for _, v := range buf {
		x := v
		for k := 0; k < fmas; k++ {
			x = x*c0 + c1
		}
		acc += x
	}
	return acc
}

func run2(buf []float64, flopsPerElem float64) float64 {
	fmas := fmaCount(flopsPerElem)
	const c0 = 1.0000001
	const c1 = 1e-9
	var a0, a1 float64
	n := len(buf) &^ 1
	for i := 0; i < n; i += 2 {
		x0, x1 := buf[i], buf[i+1]
		for k := 0; k < fmas; k++ {
			x0 = x0*c0 + c1
			x1 = x1*c0 + c1
		}
		a0 += x0
		a1 += x1
	}
	for i := n; i < len(buf); i++ {
		a0 += buf[i]
	}
	return a0 + a1
}

func run4(buf []float64, flopsPerElem float64) float64 {
	fmas := fmaCount(flopsPerElem)
	const c0 = 1.0000001
	const c1 = 1e-9
	var a0, a1, a2, a3 float64
	n := len(buf) &^ 3
	for i := 0; i < n; i += 4 {
		x0, x1, x2, x3 := buf[i], buf[i+1], buf[i+2], buf[i+3]
		for k := 0; k < fmas; k++ {
			x0 = x0*c0 + c1
			x1 = x1*c0 + c1
			x2 = x2*c0 + c1
			x3 = x3*c0 + c1
		}
		a0 += x0
		a1 += x1
		a2 += x2
		a3 += x3
	}
	for i := n; i < len(buf); i++ {
		a0 += buf[i]
	}
	return a0 + a1 + a2 + a3
}
