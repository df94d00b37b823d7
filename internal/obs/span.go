package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// The virtual-time-aware span tracer: causally linked spans opened at
// campaign → scenario → facility run → replan round → coordinator iteration
// → per-node cap-write granularity. Every span carries both clocks — the
// wall clock (when the work really ran, nests properly under concurrency)
// and the engine's virtual clock (when the work happened on the simulated
// timeline) — so a trace answers both "what was slow" and "what caused
// what". Spans export as Chrome trace_event complete ("X") events through
// Sink.WriteTrace and as a JSONL span log for cmd/obsdump spans.

// TraceID groups the spans of one causal tree (one campaign, one facility
// run started standalone). Zero is "no trace".
type TraceID uint64

// SpanID identifies one span within the log. Zero is "no span".
type SpanID uint64

// SpanContext names a span so children can link to it across layer
// boundaries (the facility hands it to the resource manager, the campaign
// to the facility). The zero value parents nothing and starts a new trace.
type SpanContext struct {
	Trace TraceID `json:"trace"`
	Span  SpanID  `json:"span"`
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 && sc.Span != 0 }

// SpanRecord is the serialized form of one span. Wall offsets are relative
// to the span log's epoch (the sink's creation); virtual times are offsets
// on the owning engine's simulated timeline (zero when the span ran outside
// any virtual clock).
type SpanRecord struct {
	Trace  TraceID `json:"trace"`
	ID     SpanID  `json:"span"`
	Parent SpanID  `json:"parent,omitempty"`
	// Name is the span kind ("facility_run", "replan", "cap_write", ...).
	Name string `json:"name"`
	// Layer is the stack layer that opened the span.
	Layer string `json:"layer,omitempty"`
	// Scope, Host, Iter, Value annotate the span like journal Event fields.
	Scope string  `json:"scope,omitempty"`
	Host  string  `json:"host,omitempty"`
	Iter  int     `json:"iter,omitempty"`
	Value float64 `json:"value,omitempty"`
	// Wall and WallDur are the wall-clock start offset and duration.
	Wall    time.Duration `json:"wall_ns"`
	WallDur time.Duration `json:"wall_dur_ns"`
	// VStart and VEnd are the virtual-clock bounds, when a virtual clock
	// was attached (Sink.WithVClock).
	VStart time.Duration `json:"vt_start_ns,omitempty"`
	VEnd   time.Duration `json:"vt_end_ns,omitempty"`
	// Open marks a span that had not ended when it was captured (flight
	// recorder snapshots of in-flight work).
	Open bool `json:"open,omitempty"`
}

// Span is an in-flight span handle. A nil *Span is valid and free: every
// method no-ops, so the uninstrumented path costs one nil check and zero
// allocations.
type Span struct {
	log     *SpanLog
	vnow    func() time.Duration
	metrics *Registry
	rec     SpanRecord
}

// DefaultSpanCapacity bounds the completed-span ring when callers pass no
// capacity.
const DefaultSpanCapacity = 1 << 14

// SpanLog is a bounded ring of completed spans plus the set of spans still
// open. Completion is O(1) and evicts the oldest completed span when full;
// open spans are tracked separately so a post-mortem can see what was
// in flight.
type SpanLog struct {
	mu        sync.Mutex
	epoch     time.Time
	buf       []SpanRecord
	total     uint64
	open      map[SpanID]*Span
	nextTrace uint64
	nextSpan  uint64
}

// NewSpanLog creates a span log holding at most capacity completed spans
// (non-positive selects DefaultSpanCapacity) with wall offsets relative to
// epoch (zero selects time.Now()).
func NewSpanLog(capacity int, epoch time.Time) *SpanLog {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	if epoch.IsZero() {
		epoch = time.Now()
	}
	return &SpanLog{
		epoch: epoch,
		buf:   make([]SpanRecord, 0, capacity),
		open:  map[SpanID]*Span{},
	}
}

// StartSpan opens a span on the sink's span log. parent links the span into
// an existing trace; the zero SpanContext starts a new trace. The returned
// handle must be closed with End (or abandoned — open spans surface in
// flight-recorder captures). A nil sink returns a nil span, which is free.
func (s *Sink) StartSpan(parent SpanContext, layer, name string) *Span {
	if s == nil || s.Spans == nil {
		return nil
	}
	l := s.Spans
	sp := &Span{log: l, vnow: s.vnow, metrics: s.Metrics}
	sp.rec.Name = name
	sp.rec.Layer = layer
	sp.rec.Wall = time.Since(l.epoch)
	if s.vnow != nil {
		sp.rec.VStart = s.vnow()
	}
	l.mu.Lock()
	l.nextSpan++
	sp.rec.ID = SpanID(l.nextSpan)
	if parent.Valid() {
		sp.rec.Trace = parent.Trace
		sp.rec.Parent = parent.Span
	} else {
		l.nextTrace++
		sp.rec.Trace = TraceID(l.nextTrace)
	}
	l.open[sp.rec.ID] = sp
	l.mu.Unlock()
	return sp
}

// Ctx returns the span's context for parenting children. Nil spans return
// the zero context, so a child opened under a disabled parent starts its
// own (equally disabled) trace.
func (sp *Span) Ctx() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: sp.rec.Trace, Span: sp.rec.ID}
}

// SetScope annotates the span with its owning entity (job, policy, cell).
func (sp *Span) SetScope(scope string) *Span {
	return sp.annotate(func(r *SpanRecord) { r.Scope = scope })
}

// SetHost annotates the span with the node involved.
func (sp *Span) SetHost(host string) *Span {
	return sp.annotate(func(r *SpanRecord) { r.Host = host })
}

// SetIter annotates the span with an iteration / round / index.
func (sp *Span) SetIter(iter int) *Span {
	return sp.annotate(func(r *SpanRecord) { r.Iter = iter })
}

// SetValue annotates the span with its primary quantity (watts, seconds).
func (sp *Span) SetValue(v float64) *Span {
	return sp.annotate(func(r *SpanRecord) { r.Value = v })
}

// annotate applies set to an open span's record under the log lock, as End
// stamps it: OpenSnapshot may be copying the record from another goroutine
// (a flight capture). Nil spans no-op.
func (sp *Span) annotate(set func(*SpanRecord)) *Span {
	if sp == nil {
		return nil
	}
	if l := sp.log; l != nil {
		l.mu.Lock()
		defer l.mu.Unlock()
	}
	set(&sp.rec)
	return sp
}

// End closes the span, stamping its wall duration and virtual end time and
// committing it to the completed ring. End is idempotent; nil spans no-op.
func (sp *Span) End() {
	if sp == nil || sp.log == nil {
		return
	}
	l := sp.log
	wallDur := time.Since(l.epoch) - sp.rec.Wall
	vend := sp.rec.VEnd
	if sp.vnow != nil {
		vend = sp.vnow()
	}
	// The stamps land under the log lock: OpenSnapshot may be copying this
	// span's record from another goroutine (a flight capture).
	l.mu.Lock()
	if _, still := l.open[sp.rec.ID]; !still {
		l.mu.Unlock()
		return
	}
	sp.rec.WallDur, sp.rec.VEnd = wallDur, vend
	delete(l.open, sp.rec.ID)
	l.total++
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, sp.rec)
	} else {
		l.buf[(l.total-1)%uint64(cap(l.buf))] = sp.rec
	}
	l.mu.Unlock()
	sp.log = nil
	if sp.metrics != nil {
		sp.metrics.Counter(MetricSpans, "name", sp.rec.Name).Inc()
	}
}

// Total returns how many spans have completed over the log's lifetime.
func (l *SpanLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Snapshot returns the retained completed spans, oldest-first.
func (l *SpanLog) Snapshot() []SpanRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SpanRecord, len(l.buf))
	if len(l.buf) < cap(l.buf) {
		copy(out, l.buf)
		return out
	}
	head := int(l.total % uint64(cap(l.buf)))
	n := copy(out, l.buf[head:])
	copy(out[n:], l.buf[:head])
	return out
}

// OpenSnapshot returns the spans still in flight, marked Open and stamped
// with their duration so far, ordered by span ID (creation order).
func (l *SpanLog) OpenSnapshot() []SpanRecord {
	if l == nil {
		return nil
	}
	now := time.Since(l.epoch)
	l.mu.Lock()
	out := make([]SpanRecord, 0, len(l.open))
	for _, sp := range l.open {
		r := sp.rec
		r.Open = true
		r.WallDur = now - r.Wall
		out = append(out, r)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WriteJSONL streams the retained completed spans as JSON Lines,
// oldest-first — the format cmd/obsdump spans renders as a tree.
func (l *SpanLog) WriteJSONL(w io.Writer) error {
	spans := l.Snapshot()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range spans {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpansJSONL parses a span log written by WriteJSONL.
func ReadSpansJSONL(r io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	dec := json.NewDecoder(r)
	for dec.More() {
		var sr SpanRecord
		if err := dec.Decode(&sr); err != nil {
			return nil, err
		}
		out = append(out, sr)
	}
	return out, nil
}

// spanTraceEvents renders spans as Chrome trace_event records: complete
// ("X") slices on the wall timeline (wall durations nest correctly even
// across concurrent traces), one thread track per trace, with the virtual
// bounds carried in args so the simulated timeline stays recoverable.
func spanTraceEvents(spans []SpanRecord) (meta, out []traceEvent) {
	const spanPID = 2
	tids := map[TraceID]int{}
	var order []TraceID
	tidFor := func(tr TraceID) int {
		if id, ok := tids[tr]; ok {
			return id
		}
		id := len(tids) + 1
		tids[tr] = id
		order = append(order, tr)
		return id
	}
	for _, r := range spans {
		args := map[string]any{
			"trace": uint64(r.Trace), "span": uint64(r.ID),
		}
		if r.Parent != 0 {
			args["parent"] = uint64(r.Parent)
		}
		if r.Layer != "" {
			args["layer"] = r.Layer
		}
		if r.Scope != "" {
			args["scope"] = r.Scope
		}
		if r.Host != "" {
			args["host"] = r.Host
		}
		if r.Iter != 0 {
			args["iter"] = r.Iter
		}
		if r.Value != 0 {
			args["value"] = r.Value
		}
		if r.VStart != 0 || r.VEnd != 0 {
			args["vt_start_s"] = r.VStart.Seconds()
			args["vt_end_s"] = r.VEnd.Seconds()
		}
		if r.Open {
			args["open"] = true
		}
		out = append(out, traceEvent{
			Name: r.Name,
			Ph:   "X",
			TS:   durMicros(r.Wall),
			Dur:  spanWidthMicros(r.WallDur),
			PID:  spanPID,
			TID:  tidFor(r.Trace),
			Args: args,
		})
	}
	meta = append(meta, traceEvent{
		Name: "process_name", Ph: "M", PID: spanPID,
		Args: map[string]any{"name": "powerstack spans"},
	})
	for _, tr := range order {
		meta = append(meta, traceEvent{
			Name: "thread_name", Ph: "M", PID: spanPID, TID: tids[tr],
			Args: map[string]any{"name": traceName(tr)},
		})
	}
	return meta, out
}

// durMicros renders a duration as fractional microseconds — Chrome trace
// ts/dur are doubles, and whole-µs truncation would let a child span's
// rounded interval spill past its parent's, breaking nesting.
func durMicros(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e3
}

// spanWidthMicros is durMicros with a 10 ns floor so zero-width spans stay
// visible slices without measurably widening real ones.
func spanWidthMicros(d time.Duration) float64 {
	us := durMicros(d)
	if us < 0.01 {
		us = 0.01
	}
	return us
}

func traceName(tr TraceID) string {
	return "trace " + formatUint(uint64(tr))
}

// formatUint avoids strconv in the tiny metadata path.
func formatUint(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
