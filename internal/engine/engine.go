// Package engine is the stack's discrete-event simulation core: a
// deterministic scheduler over a virtual clock. Instead of advancing
// simulated time with a fixed-tick loop that pays full cost for every tick
// even when nothing happens, consumers schedule work at exact virtual
// times — a Poisson arrival, a job's analytically known completion, a
// fault's onset, a telemetry sample — and RunUntil dispatches events in
// time order, jumping the clock straight from one event to the next.
//
// Determinism is a contract: events at the same virtual time dispatch in
// the order they were scheduled (monotonic event IDs break ties), so two
// runs that schedule identically dispatch identically, regardless of Go
// map iteration order or goroutine interleaving. All methods are
// single-goroutine by design, like the simulation layers they drive.
package engine

import (
	"container/heap"
	"context"
	"fmt"
	"time"

	"powerstack/internal/obs"
)

// EventID identifies a scheduled event for cancellation. IDs are assigned
// from a monotonic counter and never reused within a scheduler.
type EventID uint64

// Handler is the callback an event dispatches. now is the event's virtual
// time (the clock has already advanced to it). A non-nil error aborts
// RunUntil and is returned to the caller.
type Handler func(now time.Duration) error

// event is one heap entry.
type event struct {
	at        time.Duration
	seq       uint64
	kind      string
	fn        Handler
	cancelled bool
}

// eventHeap orders events by (time, sequence): earliest first, and FIFO
// among events at the same virtual time.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Scheduler is a deterministic discrete-event scheduler. The zero value is
// not usable; call New.
type Scheduler struct {
	// now is the virtual time, an offset from the run start. It advances
	// only when events dispatch or a RunUntil horizon is reached — never
	// with the wall clock — so a year of simulated quiet costs nothing.
	now     time.Duration
	heap    eventHeap
	pending map[EventID]*event
	nextSeq uint64

	dispatched uint64

	// Obs journals every event dispatch (kind, virtual time) when a sink
	// is attached; nil is free.
	Obs *obs.Sink
}

// New returns an empty scheduler with its clock at zero.
func New() *Scheduler {
	return &Scheduler{pending: map[EventID]*event{}}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Schedule enqueues fn to run at virtual time at. Scheduling in the past
// clamps to the present: the event dispatches at the current clock, after
// the event being processed. kind labels the event for observability and
// debugging. Returns an ID usable with Cancel.
func (s *Scheduler) Schedule(at time.Duration, kind string, fn Handler) EventID {
	if fn == nil {
		panic("engine: nil handler")
	}
	if at < s.now {
		at = s.now
	}
	s.nextSeq++
	ev := &event{at: at, seq: s.nextSeq, kind: kind, fn: fn}
	heap.Push(&s.heap, ev)
	s.pending[EventID(ev.seq)] = ev
	return EventID(ev.seq)
}

// Every schedules fn at start, start+interval, start+2*interval, ... for
// every time not after until. Each occurrence is scheduled only after the
// previous one dispatches, so Cancel on the returned first ID stops the
// series only before it begins; to stop a running series, have fn return
// an error or guard it with a flag.
func (s *Scheduler) Every(start, interval, until time.Duration, kind string, fn Handler) EventID {
	if interval <= 0 {
		panic(fmt.Sprintf("engine: non-positive interval %v", interval))
	}
	if start > until {
		return 0
	}
	var wrap Handler
	wrap = func(now time.Duration) error {
		if err := fn(now); err != nil {
			return err
		}
		if next := now + interval; next <= until {
			s.Schedule(next, kind, wrap)
		}
		return nil
	}
	return s.Schedule(start, kind, wrap)
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false: already dispatched, cancelled, or never scheduled).
// Cancellation is lazy — the entry is skipped when it surfaces.
func (s *Scheduler) Cancel(id EventID) bool {
	ev, ok := s.pending[id]
	if !ok {
		return false
	}
	ev.cancelled = true
	delete(s.pending, id)
	return true
}

// Dispatched returns how many events have been dispatched over the
// scheduler's lifetime (cancelled events are not counted).
func (s *Scheduler) Dispatched() uint64 { return s.dispatched }

// RunUntil dispatches every event with time not after until, in
// (time, sequence) order, advancing the virtual clock to each event as it
// dispatches and finally to until. Context cancellation is checked before
// every dispatch; the first handler error (or ctx error) aborts the run
// with the clock left at the failing event's time. Events scheduled beyond
// until stay pending for a later RunUntil.
func (s *Scheduler) RunUntil(ctx context.Context, until time.Duration) error {
	for len(s.heap) > 0 && s.heap[0].at <= until {
		if err := ctx.Err(); err != nil {
			return err
		}
		ev := heap.Pop(&s.heap).(*event)
		if ev.cancelled {
			continue
		}
		delete(s.pending, EventID(ev.seq))
		s.now = ev.at
		s.dispatched++
		s.Obs.EngineDispatch(ev.kind, ev.at)
		if err := ev.fn(ev.at); err != nil {
			return err
		}
	}
	if until > s.now {
		s.now = until
	}
	return nil
}

// Drain dispatches pending events in order until the queue is empty,
// leaving the clock at the last dispatched event's time. Use it when the
// run's end is defined by the work itself (a fixed iteration count) rather
// than a time horizon. Handlers that keep scheduling forever make Drain
// run forever; context cancellation remains the escape hatch.
func (s *Scheduler) Drain(ctx context.Context) error {
	for len(s.heap) > 0 {
		if err := s.RunUntil(ctx, s.heap[0].at); err != nil {
			return err
		}
	}
	return nil
}
