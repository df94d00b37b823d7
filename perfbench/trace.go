package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into the program. Spans are
// recorded only around the benchmark's own calls (set-up phases, Step,
// Inject, Snapshot, wrapped Allocate, the runners' Run), never inside the
// program.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site. It is safe for
// concurrent use: wrapped Allocate calls arrive from the program's worker
// goroutines.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	run    atomic.Int64
	// current is the span that calls made from other goroutines (the
	// policy wrapper) attach to: the Step or Run span in flight.
	current atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// handle is an open span; end closes it.
type handle struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  int64
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent (0 for a root).
func (t *tracer) begin(name string, parent int64) handle {
	if t == nil {
		return handle{}
	}
	return handle{t: t, id: t.nextID.Add(1), parent: parent, name: name, start: t.now()}
}

// beginCurrent opens a span and makes it the parent of spans started by
// other goroutines until it ends.
func (t *tracer) beginCurrent(name string, parent int64) handle {
	h := t.begin(name, parent)
	if t != nil {
		t.current.Store(h.id)
	}
	return h
}

// parent returns the span calls from other goroutines attach to.
func (t *tracer) parent() int64 {
	if t == nil {
		return 0
	}
	return t.current.Load()
}

func (h handle) end() {
	if h.t == nil {
		return
	}
	h.t.current.CompareAndSwap(h.id, h.parent)
	s := span{ID: h.id, Parent: h.parent, Run: int(h.t.run.Load()), Name: h.name, Start: h.start, End: h.t.now()}
	h.t.mu.Lock()
	h.t.spans = append(h.t.spans, s)
	h.t.mu.Unlock()
}

// setRun tags the spans recorded from now on with run id.
func (t *tracer) setRun(id int) {
	if t != nil {
		t.run.Store(int64(id))
	}
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON Lines, one span per line, after a header
// line naming the run.
func (t *tracer) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span, its duration minus the part of it
// covered by its children. Children of one span may overlap (parallel
// Allocate calls inside one Step), so the covered part is the union of the
// child intervals clipped to the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var covered, hi int64
		hi = s.Start
		for _, k := range ks {
			lo, end := max(k.Start, hi), min(k.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// byName filters spans by name.
func byName(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the spans' durations in seconds.
func durations(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.dur().Seconds()
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// traceName is the file the traced run writes its spans to.
func traceName(dir, workload string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))
}
