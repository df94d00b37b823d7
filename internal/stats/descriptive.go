// Package stats provides the statistical machinery used by the evaluation
// harness: descriptive statistics with confidence intervals (the error bars
// of Figure 8), percentiles, histograms, bootstrap resampling, and the
// k-means clustering used to partition cluster nodes by achieved frequency
// (Figure 6).
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by operations that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs, or 0 when xs
// has fewer than two samples.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs. It returns ErrEmpty when xs is empty.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs. It returns ErrEmpty when xs is empty.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// percentileSorted returns the p-th percentile of xs, which the caller has
// already sorted ascending, using linear interpolation between closest
// ranks. Callers that take several percentiles of one sample (bootstrap
// CIs, k-means quantile init) sort once and query through this. xs must be
// non-empty and sorted; p must be in [0, 100].
func percentileSorted(xs []float64, p float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// Summary bundles the descriptive statistics reported for each experimental
// cell (one policy x mix x budget combination).
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	// CI95 is the half-width of the 95% confidence interval of the mean,
	// matching the error bars in Figure 8 of the paper.
	CI95 float64
}

// Summarize computes a Summary of xs. It returns ErrEmpty for empty input.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	s := Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    mn,
		Max:    mx,
	}
	s.CI95 = ConfidenceInterval95(xs)
	return s, nil
}

// ConfidenceInterval95 returns the half-width of the 95% confidence interval
// of the mean of xs, using Student's t critical value for the sample size.
// It returns 0 for fewer than two samples.
func ConfidenceInterval95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return tCritical95(n-1) * StdDev(xs) / math.Sqrt(float64(n))
}

// tCritical95 returns the two-sided 95% critical value of Student's t
// distribution with df degrees of freedom. Values for small df come from
// standard tables; large df converge to the normal quantile 1.96.
func tCritical95(df int) float64 {
	table := []float64{
		// df: 1..30
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	switch {
	case df <= 0:
		return math.Inf(1)
	case df <= len(table):
		return table[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}

// WelchTTest compares the means of two independent samples with possibly
// unequal variances, returning the t statistic and whether the difference
// is significant at the 95% level (two-sided, using the Welch-Satterthwaite
// degrees of freedom). The evaluation harness uses it to decide whether a
// policy's savings over the baseline exceed run-to-run noise.
func WelchTTest(a, b []float64) (tStat float64, significant bool) {
	na, nb := len(a), len(b)
	if na < 2 || nb < 2 {
		return 0, false
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	sa := va / float64(na)
	sb := vb / float64(nb)
	se := math.Sqrt(sa + sb)
	if se == 0 {
		// Both samples are exact constants, so there is no noise scale to
		// test against. An exact != comparison would flag any float
		// difference — including 1-ulp dust from reordered summation — as
		// significant; require the means to differ beyond a relative
		// tolerance instead.
		return 0, !approxEqual(ma, mb)
	}
	tStat = (ma - mb) / se
	// Welch-Satterthwaite degrees of freedom.
	num := (sa + sb) * (sa + sb)
	den := sa*sa/float64(na-1) + sb*sb/float64(nb-1)
	df := int(num / den)
	if df < 1 {
		df = 1
	}
	return tStat, math.Abs(tStat) > tCritical95(df)
}

// welchRelTol is the relative tolerance below which two zero-variance
// sample means are treated as equal: far above float64 rounding noise
// (~1e-16 relative) yet far below any physically meaningful difference in
// the iteration series the harness compares.
const welchRelTol = 1e-9

// approxEqual reports whether a and b are equal within welchRelTol,
// relative to the larger magnitude. Exact equality (including both zero)
// is always approximately equal.
func approxEqual(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= welchRelTol*scale
}

// RelativeChange returns (observed-baseline)/baseline, the "percent
// improvement from the StaticCaps policy" transformation used throughout
// Figure 8. It returns 0 when baseline is 0.
func RelativeChange(observed, baseline float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (observed - baseline) / baseline
}
