package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns ErrEmpty for empty input.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p), nil
}

func feq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !feq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 = 32/7.
	if got := Variance(xs); !feq(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := StdDev(xs); !feq(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance single = %v, want 0", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance nil = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -2, 8, 0}
	mn, err := Min(xs)
	if err != nil || mn != -2 {
		t.Errorf("Min = %v, %v", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 8 {
		t.Errorf("Max = %v, %v", mx, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {150, 5},
		{12.5, 1.5},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile err: %v", err)
		}
		if !feq(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("Percentile(nil) err = %v", err)
	}
	if got, _ := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("Percentile single = %v, want 7", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	// The median is the 50th percentile.
	got, err := Percentile([]float64{9, 1, 5}, 50)
	if err != nil || got != 5 {
		t.Errorf("median = %v, %v", got, err)
	}
	got, err = Percentile([]float64{1, 2, 3, 4}, 50)
	if err != nil || got != 2.5 {
		t.Errorf("median even = %v, %v", got, err)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{10, 12, 14, 16, 18}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 14 || s.Min != 10 || s.Max != 18 {
		t.Errorf("Summary = %+v", s)
	}
	if s.CI95 <= 0 {
		t.Errorf("CI95 = %v, want > 0", s.CI95)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("Summarize(nil) err = %v", err)
	}
}

func TestConfidenceInterval95(t *testing.T) {
	// n=2, df=1: t=12.706; sd of {0,2} is sqrt(2), CI = 12.706*sqrt(2)/sqrt(2).
	got := ConfidenceInterval95([]float64{0, 2})
	if !feq(got, 12.706, 1e-9) {
		t.Errorf("CI95(n=2) = %v, want 12.706", got)
	}
	if got := ConfidenceInterval95([]float64{5}); got != 0 {
		t.Errorf("CI95(n=1) = %v, want 0", got)
	}
	// Constant samples have zero CI.
	if got := ConfidenceInterval95([]float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("CI95(constant) = %v, want 0", got)
	}
}

func TestTCritical95Monotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 500; df++ {
		v := tCritical95(df)
		if v > prev+1e-12 {
			t.Fatalf("tCritical95 not non-increasing at df=%d: %v > %v", df, v, prev)
		}
		prev = v
	}
	if got := tCritical95(1 << 20); !feq(got, 1.96, 1e-12) {
		t.Errorf("tCritical95(large) = %v, want 1.96", got)
	}
}

func TestRelativeChange(t *testing.T) {
	if got := RelativeChange(93, 100); !feq(got, -0.07, 1e-12) {
		t.Errorf("RelativeChange = %v, want -0.07", got)
	}
	if got := RelativeChange(5, 0); got != 0 {
		t.Errorf("RelativeChange baseline 0 = %v, want 0", got)
	}
}

func TestWelchTTest(t *testing.T) {
	// Clearly separated samples: significant.
	a := []float64{10, 10.1, 9.9, 10.05, 9.95, 10.02}
	b := []float64{12, 12.1, 11.9, 12.05, 11.95, 12.02}
	tStat, sig := WelchTTest(a, b)
	if !sig {
		t.Errorf("separated samples not significant (t=%v)", tStat)
	}
	if tStat >= 0 {
		t.Errorf("t statistic sign: %v, want negative (a < b)", tStat)
	}
	// Overlapping noisy samples: not significant.
	c := []float64{10, 11, 9, 12, 8, 10.5}
	d := []float64{10.2, 10.8, 9.4, 11.6, 8.6, 10.1}
	if _, sig := WelchTTest(c, d); sig {
		t.Error("overlapping samples flagged significant")
	}
	// Degenerate inputs.
	if _, sig := WelchTTest([]float64{1}, b); sig {
		t.Error("single sample flagged significant")
	}
	if _, sig := WelchTTest(nil, nil); sig {
		t.Error("empty samples flagged significant")
	}
	// Identical constant samples.
	if _, sig := WelchTTest([]float64{5, 5, 5}, []float64{5, 5, 5}); sig {
		t.Error("identical constants flagged significant")
	}
	if _, sig := WelchTTest([]float64{5, 5, 5}, []float64{6, 6, 6}); !sig {
		t.Error("different constants not flagged")
	}
}

func TestWelchTTestUnequalVariances(t *testing.T) {
	// Welch (unlike Student) handles a tight sample vs a loose one.
	tight := []float64{100.0, 100.1, 99.9, 100.05, 99.95, 100.1, 99.9, 100}
	loose := []float64{104, 96, 108, 92, 110, 90, 106, 94}
	if _, sig := WelchTTest(tight, loose); sig {
		t.Error("high-variance overlap flagged significant")
	}
	shifted := []float64{130, 122, 134, 118, 136, 116, 132, 120}
	if _, sig := WelchTTest(tight, shifted); !sig {
		t.Error("clear shift not flagged")
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := filterFinite(raw)
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		return m >= mn-1e-9*math.Abs(mn)-1e-9 && m <= mx+1e-9*math.Abs(mx)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: variance is non-negative and translation-invariant.
func TestVarianceProperties(t *testing.T) {
	f := func(raw []float64, shiftRaw float64) bool {
		xs := filterFinite(raw)
		if len(xs) < 2 {
			return true
		}
		shift := math.Mod(shiftRaw, 1e3)
		if math.IsNaN(shift) {
			shift = 0
		}
		v := Variance(xs)
		if v < 0 {
			return false
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		v2 := Variance(shifted)
		scale := math.Max(1, math.Abs(v))
		return math.Abs(v-v2) <= 1e-6*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentile is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := filterFinite(raw)
		if len(xs) == 0 {
			return true
		}
		pa := float64(a) / 255 * 100
		pb := float64(b) / 255 * 100
		if pa > pb {
			pa, pb = pb, pa
		}
		qa, _ := Percentile(xs, pa)
		qb, _ := Percentile(xs, pb)
		return qa <= qb+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func filterFinite(raw []float64) []float64 {
	var xs []float64
	for _, x := range raw {
		if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
			xs = append(xs, x)
		}
	}
	return xs
}

func TestWelchTTestZeroSETolerance(t *testing.T) {
	// When both samples are exact constants there is no noise scale; the
	// decision falls back to a relative tolerance on the means, so 1-ulp
	// dust from reordered summation is not reported as significant.
	ulp := math.Nextafter(5.0, 6.0)
	cases := []struct {
		name string
		a, b []float64
		sig  bool
	}{
		{"identical constants", []float64{5, 5, 5}, []float64{5, 5, 5}, false},
		{"one ulp apart", []float64{5, 5, 5}, []float64{ulp, ulp, ulp}, false},
		{"within relative tolerance", []float64{1e12, 1e12}, []float64{1e12 + 1, 1e12 + 1}, false},
		{"clearly different", []float64{5, 5, 5}, []float64{6, 6, 6}, true},
		{"both zero", []float64{0, 0}, []float64{0, 0}, false},
		{"zero vs nonzero", []float64{0, 0}, []float64{1, 1}, true},
		{"tiny but genuine gap", []float64{1, 1}, []float64{1.001, 1.001}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tStat, sig := WelchTTest(tc.a, tc.b)
			if tStat != 0 {
				t.Errorf("tStat = %v, want 0 on the zero-SE branch", tStat)
			}
			if sig != tc.sig {
				t.Errorf("significant = %v, want %v", sig, tc.sig)
			}
		})
	}
}
