package obs

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if got := c.Value(); got != 0 {
		t.Fatalf("zero counter = %v", got)
	}
	c.Inc()
	c.Add(2.5)
	c.Add(-10) // counters only go up
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	var g Gauge
	g.Set(240)
	g.Add(-40)
	if got := g.Value(); got != 200 {
		t.Errorf("gauge = %v, want 200", got)
	}
	g.Set(-5)
	if got := g.Value(); got != -5 {
		t.Errorf("gauge = %v, want -5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 106 {
		t.Errorf("sum = %v, want 106", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Cumulative per bound: le=1 holds 0.5 and 1 (SearchFloat64s maps an
	// observation equal to a bound into that bound's bucket).
	for _, line := range []string{
		"# TYPE h histogram",
		`h_bucket{le="1"} 2`,
		`h_bucket{le="2"} 3`,
		`h_bucket{le="5"} 4`,
		`h_bucket{le="+Inf"} 5`,
		"h_sum 106",
		"h_count 5",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestRegistrySeriesIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "job", "j1")
	b := r.Counter("m", "job", "j1")
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	other := r.Counter("m", "job", "j2")
	if a == other {
		t.Error("different labels shared a counter")
	}
	// A trailing key with no value is dropped: equivalent to unlabeled.
	odd := r.Counter("m2", "job")
	plain := r.Counter("m2")
	if odd != plain {
		t.Error("odd label list did not collapse to the unlabeled series")
	}
}

// TestRegistryLookupAllocationFree pins that finding an existing series,
// labeled or not and of every kind, allocates nothing: traced runs look a
// series up on every instrumented event.
func TestRegistryLookupAllocationFree(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "kind", "completion", "job", `j"1`)
	r.Gauge("g", "domain", "pdu")
	r.Histogram("h", WattsBuckets, "layer", "geopm")
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("c", "kind", "completion", "job", `j"1`).Inc()
		r.Gauge("g", "domain", "pdu").Set(3)
		r.Histogram("h", nil, "layer", "geopm").Observe(150)
	})
	if allocs != 0 {
		t.Errorf("existing-series lookups allocated %v per run", allocs)
	}
}

func TestRegistryKindMismatchIsDetached(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mixed")
	c.Add(7)
	// Asking for the same name as a different kind must not panic and must
	// not corrupt the original series.
	g := r.Gauge("mixed")
	g.Set(99)
	h := r.Histogram("mixed", nil)
	h.Observe(1)
	if got := c.Value(); got != 7 {
		t.Errorf("original counter disturbed: %v", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "mixed 7\n") {
		t.Errorf("counter series missing:\n%s", out)
	}
	if strings.Contains(out, "mixed 99") || strings.Contains(out, "mixed_count") {
		t.Errorf("detached instruments leaked into exposition:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc", "path", "a\\b\"c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc{path="a\\b\"c\nd"} 1`
	if !strings.Contains(b.String(), want+"\n") {
		t.Errorf("escaped exposition missing %q:\n%s", want, b.String())
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("zzz").Add(1)
		r.Gauge("aaa", "k", "v").Set(2)
		r.Counter("mmm", "job", "b").Add(3)
		r.Counter("mmm", "job", "a").Add(4)
		return r
	}
	var x, y strings.Builder
	if err := build().WritePrometheus(&x); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&y); err != nil {
		t.Fatal(err)
	}
	if x.String() != y.String() {
		t.Errorf("exposition not deterministic:\n%s\nvs\n%s", x.String(), y.String())
	}
	out := x.String()
	if strings.Index(out, "aaa") > strings.Index(out, "zzz") {
		t.Errorf("families not sorted:\n%s", out)
	}
	if strings.Index(out, `job="a"`) > strings.Index(out, `job="b"`) {
		t.Errorf("series not sorted within family:\n%s", out)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:     "0",
		3:     "3",
		-42:   "-42",
		2.5:   "2.5",
		1e18:  "1e+18",
		0.001: "0.001",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatValue(math.Inf(1)); got != "+Inf" {
		// fmt %g renders +Inf as +Inf.
		t.Logf("formatValue(+Inf) = %q", got)
	}
}

// TestRegistryConcurrency hammers one registry from GOMAXPROCS goroutines —
// every goroutine resolves series by name each iteration (exercising the
// create/lookup race) and the final totals must be exact. Run with -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("hammer_total").Inc()
				r.Counter("hammer_labeled_total", "worker", "shared").Add(2)
				r.Gauge("hammer_gauge").Add(1)
				r.Histogram("hammer_seconds", SecondsBuckets).Observe(0.1)
			}
		}(w)
	}
	wg.Wait()

	n := float64(workers * perWorker)
	if got := r.Counter("hammer_total").Value(); got != n {
		t.Errorf("counter = %v, want %v", got, n)
	}
	if got := r.Counter("hammer_labeled_total", "worker", "shared").Value(); got != 2*n {
		t.Errorf("labeled counter = %v, want %v", got, 2*n)
	}
	if got := r.Gauge("hammer_gauge").Value(); got != n {
		t.Errorf("gauge = %v, want %v", got, n)
	}
	h := r.Histogram("hammer_seconds", nil)
	if got := h.Count(); got != uint64(n) {
		t.Errorf("histogram count = %d, want %v", got, n)
	}
	if got := h.Sum(); math.Abs(got-0.1*n) > 1e-6*n {
		t.Errorf("histogram sum = %v, want %v", got, 0.1*n)
	}
}
