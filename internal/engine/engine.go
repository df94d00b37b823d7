// Package engine is the stack's discrete-event simulation core: a
// deterministic scheduler over a virtual clock. Instead of advancing
// simulated time with a fixed-tick loop that pays full cost for every tick
// even when nothing happens, consumers schedule work at exact virtual
// times — a Poisson arrival, a job's analytically known completion, a
// fault's onset, a telemetry sample — and RunUntil dispatches events in
// time order, jumping the clock straight from one event to the next.
//
// An event is plain data: its time, a sequence number, a kind and one
// argument of the consumer's type A (a job record, an index). It holds no
// callback. RunUntil hands each due event to the Dispatcher it is given,
// which switches on the kind. Because the queue holds only values, Clone
// copies a scheduler — pending events, clock and counters — and a forked
// simulation continues from the copy exactly as the original would.
//
// Determinism is a contract: events at the same virtual time dispatch in
// the order they were scheduled (monotonic sequence numbers break ties), so
// two runs that schedule identically dispatch identically, regardless of Go
// map iteration order or goroutine interleaving. All methods are
// single-goroutine by design, like the simulation layers they drive.
package engine

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"time"

	"powerstack/internal/obs"
)

// EventID identifies a scheduled event for cancellation. IDs are the
// events' sequence numbers: assigned from a monotonic counter and never
// reused within a scheduler (or between a scheduler and its clones).
type EventID uint64

// Kind labels an event: the consumer switches on it, and observability
// journals its registered name. Kinds are registered with New or Kind.
type Kind uint8

// Dispatcher consumes due events. now is the event's virtual time (the
// clock has already advanced to it). A non-nil error aborts RunUntil and is
// returned to the caller.
type Dispatcher[A any] interface {
	Dispatch(now time.Duration, kind Kind, arg A) error
}

// event is one queue entry. every > 0 makes it periodic: once dispatched
// it is re-armed every later, for as long as the next time is not after
// until.
type event[A any] struct {
	at    time.Duration
	seq   uint64
	kind  Kind
	arg   A
	every time.Duration
	until time.Duration
}

// before orders events by (time, sequence): earliest first, and FIFO among
// events at the same virtual time.
func (e *event[A]) before(o *event[A]) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Scheduler is a deterministic discrete-event scheduler whose events carry
// an argument of type A. The zero value is not usable; call New.
type Scheduler[A any] struct {
	// now is the virtual time, an offset from the run start. It advances
	// only when events dispatch or a RunUntil horizon is reached — never
	// with the wall clock — so a year of simulated quiet costs nothing.
	now time.Duration
	// heap is a binary min-heap of events by (time, sequence); pending
	// holds the IDs still due to dispatch, so cancellation is lazy: a
	// cancelled entry is skipped when it surfaces.
	heap    []event[A]
	pending map[EventID]struct{}
	nextSeq uint64
	names   []string

	dispatched uint64

	// Obs journals every event dispatch (kind, virtual time) when a sink
	// is attached; nil is free.
	Obs *obs.Sink
}

// New returns an empty scheduler with its clock at zero and the given
// kinds registered as Kind(0), Kind(1), ... in order.
func New[A any](kinds ...string) *Scheduler[A] {
	s := &Scheduler[A]{pending: map[EventID]struct{}{}}
	for _, k := range kinds {
		s.Kind(k)
	}
	return s
}

// Kind returns the kind registered under name, registering it first if
// needed.
func (s *Scheduler[A]) Kind(name string) Kind {
	if i := slices.Index(s.names, name); i >= 0 {
		return Kind(i)
	}
	if len(s.names) > 255 {
		panic("engine: too many event kinds")
	}
	s.names = append(s.names, name)
	return Kind(len(s.names) - 1)
}

// Now returns the current virtual time.
func (s *Scheduler[A]) Now() time.Duration { return s.now }

// Schedule enqueues an event of the given kind and argument at virtual
// time at. Scheduling in the past clamps to the present: the event
// dispatches at the current clock, after the event being processed.
// Returns an ID usable with Cancel.
func (s *Scheduler[A]) Schedule(at time.Duration, kind Kind, arg A) EventID {
	return s.push(event[A]{at: at, kind: kind, arg: arg})
}

// Every schedules an event at start, start+interval, start+2*interval, ...
// for every time not after until. The event carries its interval and end:
// each occurrence is re-armed, with a fresh sequence number, only after the
// previous one dispatched without error, so Cancel on the returned ID
// stops the series only before it begins.
func (s *Scheduler[A]) Every(start, interval, until time.Duration, kind Kind, arg A) EventID {
	if interval <= 0 {
		panic(fmt.Sprintf("engine: non-positive interval %v", interval))
	}
	if start > until {
		return 0
	}
	return s.push(event[A]{at: start, kind: kind, arg: arg, every: interval, until: until})
}

func (s *Scheduler[A]) push(ev event[A]) EventID {
	if int(ev.kind) >= len(s.names) {
		panic(fmt.Sprintf("engine: unregistered event kind %d", ev.kind))
	}
	if ev.at < s.now {
		ev.at = s.now
	}
	s.nextSeq++
	ev.seq = s.nextSeq
	s.heap = append(s.heap, ev)
	s.up(len(s.heap) - 1)
	id := EventID(ev.seq)
	s.pending[id] = struct{}{}
	return id
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false: already dispatched, cancelled, or never scheduled).
func (s *Scheduler[A]) Cancel(id EventID) bool {
	if _, ok := s.pending[id]; !ok {
		return false
	}
	delete(s.pending, id)
	return true
}

// Dispatched returns how many events have been dispatched over the
// scheduler's lifetime (cancelled events are not counted).
func (s *Scheduler[A]) Dispatched() uint64 { return s.dispatched }

// Clone returns an independent copy of the scheduler: clock, counters,
// registered kinds and every queued event, with each event's argument
// passed through remap. Cancelled entries still in the queue are remapped
// too; they never dispatch. The copy has no Obs sink.
func (s *Scheduler[A]) Clone(remap func(A) A) *Scheduler[A] {
	c := &Scheduler[A]{
		now:        s.now,
		heap:       slices.Clone(s.heap),
		pending:    maps.Clone(s.pending),
		nextSeq:    s.nextSeq,
		names:      slices.Clone(s.names),
		dispatched: s.dispatched,
	}
	for i := range c.heap {
		c.heap[i].arg = remap(c.heap[i].arg)
	}
	return c
}

// RunUntil dispatches every event with time not after until to d, in
// (time, sequence) order, advancing the virtual clock to each event as it
// dispatches and finally to until. Context cancellation is checked before
// every dispatch; the first dispatch error (or ctx error) aborts the run
// with the clock left at the failing event's time. Events scheduled beyond
// until stay pending for a later RunUntil.
func (s *Scheduler[A]) RunUntil(ctx context.Context, until time.Duration, d Dispatcher[A]) error {
	for len(s.heap) > 0 && s.heap[0].at <= until {
		if err := ctx.Err(); err != nil {
			return err
		}
		ev := s.pop()
		id := EventID(ev.seq)
		if _, ok := s.pending[id]; !ok {
			continue // cancelled
		}
		delete(s.pending, id)
		s.now = ev.at
		s.dispatched++
		s.Obs.EngineDispatch(s.names[ev.kind], ev.at)
		if err := d.Dispatch(ev.at, ev.kind, ev.arg); err != nil {
			return err
		}
		if ev.every > 0 {
			if next := ev.at + ev.every; next <= ev.until {
				ev.at = next
				s.push(ev)
			}
		}
	}
	if until > s.now {
		s.now = until
	}
	return nil
}

// Drain dispatches pending events to d in order until the queue is empty,
// leaving the clock at the last dispatched event's time. Use it when the
// run's end is defined by the work itself (a fixed iteration count) rather
// than a time horizon. A dispatcher that keeps scheduling forever makes
// Drain run forever; context cancellation remains the escape hatch.
func (s *Scheduler[A]) Drain(ctx context.Context, d Dispatcher[A]) error {
	for len(s.heap) > 0 {
		if err := s.RunUntil(ctx, s.heap[0].at, d); err != nil {
			return err
		}
	}
	return nil
}

// pop removes and returns the earliest event.
func (s *Scheduler[A]) pop() event[A] {
	h := s.heap
	ev := h[0]
	last := len(h) - 1
	h[0] = h[last]
	var zero event[A]
	h[last] = zero // drop the argument's references
	s.heap = h[:last]
	if last > 0 {
		s.down(0)
	}
	return ev
}

func (s *Scheduler[A]) up(i int) {
	h := s.heap
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (s *Scheduler[A]) down(i int) {
	h := s.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].before(&h[l]) {
			m = r
		}
		if !h[m].before(&h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
