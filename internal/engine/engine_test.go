package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"powerstack/internal/obs"
)

// dispatchFunc adapts a function to Dispatcher.
type dispatchFunc[A any] func(now time.Duration, kind Kind, arg A) error

func (f dispatchFunc[A]) Dispatch(now time.Duration, kind Kind, arg A) error {
	return f(now, kind, arg)
}

func TestRunUntilDispatchesInTimeOrder(t *testing.T) {
	s := New[string]("t")
	var got []string
	rec := dispatchFunc[string](func(_ time.Duration, _ Kind, name string) error {
		got = append(got, name)
		return nil
	})
	s.Schedule(3*time.Second, 0, "c")
	s.Schedule(1*time.Second, 0, "a")
	s.Schedule(2*time.Second, 0, "b")
	if err := s.RunUntil(context.Background(), 10*time.Second, rec); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("dispatch order = %v, want %v", got, want)
		}
	}
	if s.Now() != 10*time.Second {
		t.Errorf("clock = %v after RunUntil, want 10s", s.Now())
	}
}

func TestSameTimeEventsDispatchFIFO(t *testing.T) {
	s := New[int]("tie")
	var got []int
	for i := 0; i < 50; i++ {
		s.Schedule(time.Second, 0, i)
	}
	err := s.RunUntil(context.Background(), time.Second, dispatchFunc[int](func(_ time.Duration, _ Kind, i int) error {
		got = append(got, i)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("dispatched %d events, want 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time dispatch order broke at %d: got %d (full: %v)", i, v, got)
		}
	}
}

func TestClockAdvancesToEachEvent(t *testing.T) {
	s := New[int]("t")
	var at []time.Duration
	d := dispatchFunc[int](func(now time.Duration, _ Kind, _ int) error {
		if now != s.Now() {
			t.Errorf("dispatch now %v != clock %v", now, s.Now())
		}
		at = append(at, now)
		return nil
	})
	for _, t := range []time.Duration{5 * time.Second, time.Second, 3 * time.Second} {
		s.Schedule(t, 0, 0)
	}
	if err := s.RunUntil(context.Background(), 4*time.Second, d); err != nil {
		t.Fatal(err)
	}
	if len(at) != 2 || at[0] != time.Second || at[1] != 3*time.Second {
		t.Fatalf("dispatched at %v, want [1s 3s]", at)
	}
	if s.Now() != 4*time.Second {
		t.Errorf("clock = %v, want horizon 4s", s.Now())
	}
	// The 5s event survives for a later run.
	if len(s.pending) != 1 {
		t.Fatalf("pending = %d, want 1", len(s.pending))
	}
	if err := s.RunUntil(context.Background(), 6*time.Second, d); err != nil {
		t.Fatal(err)
	}
	if len(at) != 3 || at[2] != 5*time.Second {
		t.Fatalf("second run dispatched at %v, want trailing 5s", at)
	}
}

func TestCancelSkipsPendingEvent(t *testing.T) {
	s := New[int]("x")
	fired := false
	id := s.Schedule(time.Second, 0, 0)
	if !s.Cancel(id) {
		t.Fatal("Cancel on pending event = false")
	}
	if s.Cancel(id) {
		t.Error("second Cancel = true, want false")
	}
	if len(s.pending) != 0 {
		t.Errorf("pending = %d after cancel, want 0", len(s.pending))
	}
	err := s.RunUntil(context.Background(), 2*time.Second, dispatchFunc[int](func(time.Duration, Kind, int) error {
		fired = true
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	if s.Dispatched() != 0 {
		t.Errorf("dispatched = %d, want 0", s.Dispatched())
	}
}

func TestSchedulePastClampsToNow(t *testing.T) {
	s := New[int]("outer", "late")
	var lateAt time.Duration
	s.Schedule(2*time.Second, 0, 0)
	err := s.RunUntil(context.Background(), 3*time.Second, dispatchFunc[int](func(now time.Duration, kind Kind, _ int) error {
		if kind == 0 {
			s.Schedule(time.Second, 1, 0)
		} else {
			lateAt = now
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if lateAt != 2*time.Second {
		t.Errorf("past-scheduled event ran at %v, want clamped to 2s", lateAt)
	}
}

func TestHandlerErrorAbortsRun(t *testing.T) {
	s := New[string]("t")
	boom := errors.New("boom")
	s.Schedule(time.Second, 0, "ok")
	s.Schedule(2*time.Second, 0, "bad")
	s.Schedule(3*time.Second, 0, "never")
	ran := false
	err := s.RunUntil(context.Background(), 5*time.Second, dispatchFunc[string](func(_ time.Duration, _ Kind, name string) error {
		switch name {
		case "bad":
			return boom
		case "never":
			ran = true
		}
		return nil
	}))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran {
		t.Error("event after the failing one still dispatched")
	}
	if s.Now() != 2*time.Second {
		t.Errorf("clock = %v after abort, want the failing event's 2s", s.Now())
	}
}

func TestContextCancellationStopsDispatch(t *testing.T) {
	s := New[int]("tick")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(time.Duration(i)*time.Second, 0, i)
	}
	err := s.RunUntil(ctx, 20*time.Second, dispatchFunc[int](func(time.Duration, Kind, int) error {
		n++
		if n == 3 {
			cancel()
		}
		return nil
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n != 3 {
		t.Errorf("dispatched %d events after cancel, want 3", n)
	}
}

func TestEverySchedulesChain(t *testing.T) {
	s := New[int]("beat")
	var at []time.Duration
	s.Every(time.Second, time.Second, 5*time.Second, 0, 7)
	err := s.RunUntil(context.Background(), 10*time.Second, dispatchFunc[int](func(now time.Duration, _ Kind, arg int) error {
		if arg != 7 {
			t.Errorf("occurrence at %v carries %d, want 7", now, arg)
		}
		at = append(at, now)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(at) != 5 {
		t.Fatalf("fired %d times, want 5 (at %v)", len(at), at)
	}
	for i, a := range at {
		if a != time.Duration(i+1)*time.Second {
			t.Errorf("beat %d at %v, want %v", i, a, time.Duration(i+1)*time.Second)
		}
	}
}

func TestEveryStartBeyondUntilIsNoop(t *testing.T) {
	s := New[int]("x")
	if id := s.Every(2*time.Second, time.Second, time.Second, 0, 0); id != 0 {
		t.Errorf("Every beyond until returned id %d, want 0", id)
	}
	if len(s.pending) != 0 {
		t.Errorf("pending = %d, want 0", len(s.pending))
	}
}

func TestDrainRunsUntilQueueEmpty(t *testing.T) {
	s := New[int]("chain")
	var got []time.Duration
	chain := dispatchFunc[int](func(now time.Duration, kind Kind, _ int) error {
		got = append(got, now)
		if now < 3*time.Second {
			s.Schedule(now+time.Second, kind, 0)
		}
		return nil
	})
	s.Schedule(time.Second, 0, 0)
	if err := s.Drain(context.Background(), chain); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("drained %d events, want 3 (%v)", len(got), got)
	}
	if s.Now() != 3*time.Second {
		t.Errorf("clock = %v after drain, want the last event's 3s", s.Now())
	}
	if len(s.pending) != 0 {
		t.Errorf("pending = %d after drain, want 0", len(s.pending))
	}
}

func TestDispatchJournaledThroughObs(t *testing.T) {
	s := New[int]("alpha")
	beta := s.Kind("beta")
	if again := s.Kind("beta"); again != beta {
		t.Fatalf("re-registering beta gave kind %d, want %d", again, beta)
	}
	sink := obs.New()
	s.Obs = sink
	s.Schedule(time.Second, 0, 0)
	s.Schedule(2*time.Second, beta, 0)
	if err := s.RunUntil(context.Background(), 5*time.Second, dispatchFunc[int](func(time.Duration, Kind, int) error { return nil })); err != nil {
		t.Fatal(err)
	}
	events := sink.Journal.Snapshot()
	var kinds []string
	for _, e := range events {
		if e.Type == obs.EvEngineDispatch {
			kinds = append(kinds, e.Scope)
		}
	}
	if len(kinds) != 2 || kinds[0] != "alpha" || kinds[1] != "beta" {
		t.Fatalf("journaled dispatches = %v, want [alpha beta]", kinds)
	}
	if s.Dispatched() != 2 {
		t.Errorf("Dispatched() = %d, want 2", s.Dispatched())
	}
}

// TestCloneContinuesIndependently pins the copy a forked simulation runs
// on: a clone taken mid-run dispatches exactly the events, order and
// clock the original dispatches from that point, with remapped arguments,
// and neither side's scheduling reaches the other.
func TestCloneContinuesIndependently(t *testing.T) {
	s := New[int]("x", "beat")
	type fired struct {
		at  time.Duration
		arg int
	}
	run := func(s *Scheduler[int], log *[]fired) dispatchFunc[int] {
		return func(now time.Duration, kind Kind, arg int) error {
			*log = append(*log, fired{now, arg})
			if kind == 0 && now < 10*time.Second {
				s.Schedule(now+time.Second, 0, arg+10)
			}
			return nil
		}
	}
	for i := 1; i <= 5; i++ {
		s.Schedule(time.Duration(i)*time.Second, 0, i)
	}
	s.Every(time.Second, 2*time.Second, 9*time.Second, 1, 1000)
	cancelled := s.Schedule(4*time.Second, 0, 99)
	var prefix []fired
	if err := s.RunUntil(context.Background(), 2*time.Second, run(s, &prefix)); err != nil {
		t.Fatal(err)
	}
	s.Cancel(cancelled)
	c := s.Clone(func(a int) int { return a * 2 })
	var orig, clone []fired
	if err := s.RunUntil(context.Background(), 20*time.Second, run(s, &orig)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(context.Background(), 20*time.Second, run(c, &clone)); err != nil {
		t.Fatal(err)
	}
	if len(orig) == 0 || len(orig) != len(clone) {
		t.Fatalf("original dispatched %d events after the clone, clone %d", len(orig), len(clone))
	}
	for i := range orig {
		if orig[i].at != clone[i].at {
			t.Fatalf("event %d at %v in the original, %v in the clone", i, orig[i].at, clone[i].at)
		}
	}
	if s.Dispatched() != c.Dispatched() || s.Now() != c.Now() {
		t.Errorf("original dispatched %d to %v, clone %d to %v", s.Dispatched(), s.Now(), c.Dispatched(), c.Now())
	}
	if clone[0].arg != 2*orig[0].arg {
		t.Errorf("clone's first argument %d, want the remapped %d", clone[0].arg, 2*orig[0].arg)
	}
	for _, f := range append(orig, clone...) {
		if f.arg == 99 || f.arg == 198 {
			t.Error("an event cancelled before the clone dispatched")
		}
	}
}
