package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use; values are float64 so energy/power totals can accumulate
// without unit scaling.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter by v (negative deltas are ignored — counters
// only go up, per the Prometheus data model).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a metric that can go up and down (e.g. the latest grant in
// watts). Safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by v (which may be negative).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
// Safe for concurrent use.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, the last is +Inf
	sum    Counter
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the containing bucket, the same estimate PromQL's
// histogram_quantile computes. Returns NaN for an empty histogram; samples
// landing in the +Inf bucket report the highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i, bound := range h.bounds {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			return lower + (bound-lower)*frac
		}
		cum += n
	}
	// Rank falls in the +Inf bucket: the best bounded estimate is the
	// largest finite bound (or NaN when the histogram has no bounds).
	if len(h.bounds) == 0 {
		return math.NaN()
	}
	return h.bounds[len(h.bounds)-1]
}

// LogBuckets returns logarithmically spaced bucket upper bounds from min to
// max (inclusive) with perDecade bounds per factor of ten. Log spacing keeps
// relative error constant across the many orders of magnitude the stack's
// latencies span (microsecond cache hits to multi-second characterizations)
// at a fraction of the buckets a linear layout would need at 100k-node
// scale. Bounds are rounded to three significant figures so the exposition
// stays readable.
func LogBuckets(min, max float64, perDecade int) []float64 {
	if min <= 0 || max <= min || perDecade <= 0 {
		return nil
	}
	ratio := math.Pow(10, 1/float64(perDecade))
	var out []float64
	for v := min; v < max*(1-1e-12); v *= ratio {
		out = append(out, round3(v))
	}
	out = append(out, round3(max))
	return out
}

func round3(v float64) float64 {
	if v == 0 {
		return 0
	}
	exp := math.Floor(math.Log10(math.Abs(v)))
	scale := math.Pow(10, exp-2)
	return math.Round(v/scale) * scale
}

// Default bucket layouts for the stack's dominant quantities.
var (
	// SecondsBuckets spans BSP iteration times (tens of milliseconds to
	// seconds of simulated time) and sim cell wall times.
	SecondsBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1, 1.5, 2.5, 5, 10, 30}
	// WattsBuckets spans per-node power limits on the simulated Broadwell
	// parts (settable range roughly 100-480 W per dual-socket node).
	WattsBuckets = []float64{80, 100, 120, 140, 160, 180, 200, 220, 240, 280, 320, 400, 480}
	// LatencySecondsBuckets spans wall-clock control-path latencies: replan
	// rounds, cap-write paths, and characterization-cache lookups run from
	// microseconds (cache hit) to seconds (full two-pass characterization).
	LatencySecondsBuckets = LogBuckets(1e-6, 10, 3)
	// VirtualSecondsBuckets spans virtual-clock durations — job waits and
	// turnarounds on the simulated timeline, from one second to ~12 days.
	VirtualSecondsBuckets = LogBuckets(1, 1e6, 3)
	// GrantWattsBuckets spans per-job grant sizes, which range from a single
	// node's floor to a facility-scale budget.
	GrantWattsBuckets = LogBuckets(50, 100000, 4)
	// RetryBuckets counts small discrete retry totals per cap-write.
	RetryBuckets = []float64{0, 1, 2, 3, 5, 8}
)

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// series is one (name, labels) time series stored in the registry.
type series struct {
	name   string // family name
	labels string // rendered {k="v",...} or ""
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metrics. Lookups take a read lock on the hot path
// and only write-lock to create a series the first time it is seen, so
// concurrent instrumented layers (the sim grid runs cells in parallel) scale.
// Finding an existing series allocates nothing: its key is rendered into a
// stack buffer and looked up without converting it to a string.
type Registry struct {
	mu     sync.RWMutex
	series map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: map[string]*series{}}
}

// appendSeriesKey appends the canonical series key to dst: name plus a
// deterministic label rendering {k="v",...}, which is the key past
// len(name). Labels are alternating key, value pairs; a trailing key
// without a value is dropped.
func appendSeriesKey(dst []byte, name string, labels []string) []byte {
	dst = append(dst, name...)
	if len(labels) < 2 {
		return dst
	}
	n := len(labels) &^ 1
	dst = append(dst, '{')
	for i := 0; i < n; i += 2 {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, labels[i]...)
		dst = append(dst, `="`...)
		dst = appendEscaped(dst, labels[i+1])
		dst = append(dst, '"')
	}
	return append(dst, '}')
}

// appendEscaped appends the label value v with backslash, double quote and
// newline escaped, as the exposition format requires.
func appendEscaped(dst []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\', '"':
			dst = append(dst, '\\', c)
		case '\n':
			dst = append(dst, `\n`...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// get returns the series for name and labels, creating it with the given
// kind (and, for a histogram, bucket upper bounds) on first use. An existing
// series keeps its kind, so the caller checks it.
func (r *Registry) get(kind metricKind, name string, buckets []float64, labels []string) *series {
	var buf [128]byte
	key := appendSeriesKey(buf[:0], name, labels)
	r.mu.RLock()
	s := r.series[string(key)]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.series[string(key)]; s != nil {
		return s
	}
	if kind == kindHistogram && buckets == nil {
		buckets = SecondsBuckets
	}
	k := string(key)
	s = newSeries(name, k[len(name):], kind, buckets)
	r.series[k] = s
	return s
}

// newSeries builds an empty series of the given kind; a histogram gets a
// sorted copy of bounds as its bucket upper bounds.
func newSeries(name, labels string, kind metricKind, bounds []float64) *series {
	s := &series{name: name, labels: labels, kind: kind}
	switch kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		s.h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	}
	return s
}

// Counter returns the counter for name and labels (alternating key, value),
// creating it on first use. If the series already exists with a different
// kind, a detached instrument is returned so the caller never dereferences
// nil; the misuse shows up as a missing series in the exposition.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if s := r.get(kindCounter, name, nil, labels); s.c != nil {
		return s.c
	}
	return &Counter{}
}

// Gauge returns the gauge for name and labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if s := r.get(kindGauge, name, nil, labels); s.g != nil {
		return s.g
	}
	return &Gauge{}
}

// Histogram returns the histogram for name and labels, creating it with the
// given bucket upper bounds on first use (nil buckets default to
// SecondsBuckets). Buckets are fixed at creation; later calls may pass nil.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if s := r.get(kindHistogram, name, buckets, labels); s.h != nil {
		return s.h
	}
	return &Histogram{bounds: nil, counts: make([]atomic.Uint64, 1)}
}

// metricHelp maps each metric family exported by the typed helpers to its
// HELP line. WritePrometheus falls back to a generic line for families
// registered outside the helper vocabulary.
var metricHelp = map[string]string{
	MetricGrants:            "Resource-manager grants issued to jobs.",
	MetricGrantWatts:        "Latest granted budget per job in watts.",
	MetricRegrants:          "Renegotiated budgets accepted by job runtimes.",
	MetricIterations:        "Bulk-synchronous iterations completed.",
	MetricIterationSeconds:  "Distribution of BSP iteration times in seconds.",
	MetricReallocs:          "Within-job per-host limit redistributions.",
	MetricReallocWatts:      "Watts moved by within-job redistributions.",
	MetricLimitWrites:       "Node-level RAPL power-limit writes.",
	MetricLimitWatts:        "Distribution of programmed node power limits in watts.",
	MetricMSRWrites:         "Raw MSR PL1 register writes.",
	MetricEnergyWraps:       "32-bit RAPL energy-counter wraparounds.",
	MetricPowerWatts:        "Latest sampled power per telemetry domain in watts.",
	MetricCells:             "Sim evaluation cells completed.",
	MetricCellSeconds:       "Distribution of sim cell wall times in seconds.",
	MetricJobRuns:           "Sim grid job runs by outcome: executed, or shared with an identical run.",
	MetricFaults:            "Fault-plan injections armed or fired.",
	MetricQuarantines:       "Nodes moved to the drain set.",
	MetricRejoins:           "Repaired nodes returned to service.",
	MetricFallbacks:         "StaticCaps fallbacks for uncharacterized jobs.",
	MetricCapRetries:        "Retried power-limit writes.",
	MetricRequestHolds:      "Coordinator grant holds for missing requests.",
	MetricTelemetryHolds:    "Telemetry samples held through dropouts.",
	MetricRequeues:          "Jobs requeued after losing a node.",
	MetricEngineEvents:      "Discrete-event engine dispatches.",
	MetricCampaignScenarios: "Campaign scenarios completed.",
	MetricCharzCacheHits:    "Characterization-cache lookups served from a stored entry.",
	MetricCharzCacheMisses:  "Characterization-cache lookups that ran the two-pass characterization.",
	MetricReplanSeconds:     "Distribution of facility replan-round wall latency in seconds.",
	MetricGrantSizeWatts:    "Distribution of grant sizes in watts.",
	MetricJobWaitSeconds:    "Distribution of job queue-wait times in virtual seconds.",
	MetricJobTurnaround:     "Distribution of job turnaround times in virtual seconds.",
	MetricCapRetryCount:     "Distribution of retries needed per cap write.",
	MetricCacheLookupTime:   "Distribution of characterization-cache lookup wall latency in seconds.",
	MetricStreamClients:     "Live streaming clients currently subscribed.",
	MetricStreamDropped:     "Streaming clients dropped for not keeping up.",
	MetricSpans:             "Tracing spans completed.",
	MetricBudgetChanges:     "Facility budget-timeline changes applied.",
	MetricPreemptions:       "Jobs preempted at a checkpoint during budget emergencies.",
	MetricJobKills:          "Jobs killed outright during budget emergencies.",
	MetricResumes:           "Preempted jobs restarted from a checkpoint.",
	MetricInfeasibleRejects: "Submissions refused for demand above the current budget.",
}

func helpFor(name string) string {
	if h, ok := metricHelp[name]; ok {
		return h
	}
	return "powerstack metric " + name + "."
}

// WritePrometheus renders every series in the Prometheus text exposition
// format (v0.0.4), grouped by family with one HELP and one TYPE comment
// each, sorted by name for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	all := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		all = append(all, s)
	}
	r.mu.RUnlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].name != all[j].name {
			return all[i].name < all[j].name
		}
		return all[i].labels < all[j].labels
	})
	lastFamily := ""
	for _, s := range all {
		if s.name != lastFamily {
			lastFamily = s.name
			kind := "counter"
			switch s.kind {
			case kindGauge:
				kind = "gauge"
			case kindHistogram:
				kind = "histogram"
			}
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.name, helpFor(s.name)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.name, kind); err != nil {
				return err
			}
		}
		var err error
		switch s.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s%s %s\n", s.name, s.labels, formatValue(s.c.Value()))
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s%s %s\n", s.name, s.labels, formatValue(s.g.Value()))
		case kindHistogram:
			err = writeHistogram(w, s)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, s *series) error {
	var cum uint64
	for i, bound := range s.h.bounds {
		cum += s.h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, withLabel(s.labels, "le", formatValue(bound)), cum); err != nil {
			return err
		}
	}
	cum += s.h.counts[len(s.h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, withLabel(s.labels, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.name, s.labels, formatValue(s.h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.name, s.labels, s.h.Count())
	return err
}

// withLabel merges one extra label into an already-rendered label set.
func withLabel(rendered, key, value string) string {
	extra := key + `="` + string(appendEscaped(nil, value)) + `"`
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
