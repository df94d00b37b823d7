package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"powerstack/internal/obs"
)

func TestRunUntilDispatchesInTimeOrder(t *testing.T) {
	s := New()
	var got []string
	rec := func(name string) Handler {
		return func(time.Duration) error {
			got = append(got, name)
			return nil
		}
	}
	s.Schedule(3*time.Second, "c", rec("c"))
	s.Schedule(1*time.Second, "a", rec("a"))
	s.Schedule(2*time.Second, "b", rec("b"))
	if err := s.RunUntil(context.Background(), 10*time.Second); err != nil {
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
	s := New()
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		s.Schedule(time.Second, "tie", func(time.Duration) error {
			got = append(got, i)
			return nil
		})
	}
	if err := s.RunUntil(context.Background(), time.Second); err != nil {
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
	s := New()
	var at []time.Duration
	for _, d := range []time.Duration{5 * time.Second, time.Second, 3 * time.Second} {
		s.Schedule(d, "t", func(now time.Duration) error {
			if now != s.Now() {
				t.Errorf("handler now %v != clock %v", now, s.Now())
			}
			at = append(at, now)
			return nil
		})
	}
	if err := s.RunUntil(context.Background(), 4*time.Second); err != nil {
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
	if err := s.RunUntil(context.Background(), 6*time.Second); err != nil {
		t.Fatal(err)
	}
	if len(at) != 3 || at[2] != 5*time.Second {
		t.Fatalf("second run dispatched at %v, want trailing 5s", at)
	}
}

func TestCancelSkipsPendingEvent(t *testing.T) {
	s := New()
	fired := false
	id := s.Schedule(time.Second, "x", func(time.Duration) error {
		fired = true
		return nil
	})
	if !s.Cancel(id) {
		t.Fatal("Cancel on pending event = false")
	}
	if s.Cancel(id) {
		t.Error("second Cancel = true, want false")
	}
	if len(s.pending) != 0 {
		t.Errorf("pending = %d after cancel, want 0", len(s.pending))
	}
	if err := s.RunUntil(context.Background(), 2*time.Second); err != nil {
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
	s := New()
	var lateAt time.Duration
	s.Schedule(2*time.Second, "outer", func(now time.Duration) error {
		s.Schedule(time.Second, "late", func(at time.Duration) error {
			lateAt = at
			return nil
		})
		return nil
	})
	if err := s.RunUntil(context.Background(), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if lateAt != 2*time.Second {
		t.Errorf("past-scheduled event ran at %v, want clamped to 2s", lateAt)
	}
}

func TestHandlerErrorAbortsRun(t *testing.T) {
	s := New()
	boom := errors.New("boom")
	s.Schedule(time.Second, "ok", func(time.Duration) error { return nil })
	s.Schedule(2*time.Second, "bad", func(time.Duration) error { return boom })
	ran := false
	s.Schedule(3*time.Second, "never", func(time.Duration) error {
		ran = true
		return nil
	})
	if err := s.RunUntil(context.Background(), 5*time.Second); !errors.Is(err, boom) {
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
	s := New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(time.Duration(i)*time.Second, "tick", func(time.Duration) error {
			n++
			if n == 3 {
				cancel()
			}
			return nil
		})
	}
	err := s.RunUntil(ctx, 20*time.Second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n != 3 {
		t.Errorf("dispatched %d events after cancel, want 3", n)
	}
}

func TestEverySchedulesChain(t *testing.T) {
	s := New()
	var at []time.Duration
	s.Every(time.Second, time.Second, 5*time.Second, "beat", func(now time.Duration) error {
		at = append(at, now)
		return nil
	})
	if err := s.RunUntil(context.Background(), 10*time.Second); err != nil {
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
	s := New()
	if id := s.Every(2*time.Second, time.Second, time.Second, "x", func(time.Duration) error { return nil }); id != 0 {
		t.Errorf("Every beyond until returned id %d, want 0", id)
	}
	if len(s.pending) != 0 {
		t.Errorf("pending = %d, want 0", len(s.pending))
	}
}

func TestDrainRunsUntilQueueEmpty(t *testing.T) {
	s := New()
	var got []time.Duration
	var chain func(now time.Duration) error
	chain = func(now time.Duration) error {
		got = append(got, now)
		if now < 3*time.Second {
			s.Schedule(now+time.Second, "chain", chain)
		}
		return nil
	}
	s.Schedule(time.Second, "chain", chain)
	if err := s.Drain(context.Background()); err != nil {
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
	s := New()
	sink := obs.New()
	s.Obs = sink
	s.Schedule(time.Second, "alpha", func(time.Duration) error { return nil })
	s.Schedule(2*time.Second, "beta", func(time.Duration) error { return nil })
	if err := s.RunUntil(context.Background(), 5*time.Second); err != nil {
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
