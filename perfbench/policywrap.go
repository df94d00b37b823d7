package main

import (
	"sync"
	"sync/atomic"
	"time"

	"powerstack/internal/policy"
)

// allocStats aggregates the timing of every wrapped Allocate call. One
// instance is shared by all policies of a run, and it is safe for the
// concurrent calls the scale path's parallel replan makes.
type allocStats struct {
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds

	mu  sync.Mutex
	lat []time.Duration
}

func (a *allocStats) observe(d time.Duration) {
	a.calls.Add(1)
	a.busy.Add(int64(d))
	a.mu.Lock()
	a.lat = append(a.lat, d)
	a.mu.Unlock()
}

// latencies returns the observed call durations in seconds.
func (a *allocStats) latencies() []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]float64, len(a.lat))
	for i, d := range a.lat {
		out[i] = d.Seconds()
	}
	return out
}

// timedPolicy wraps a policy.Policy, timing every Allocate call and
// recording it as a span under the caller's current span. Name is
// delegated, so reports carry the wrapped policy's name.
type timedPolicy struct {
	inner policy.Policy
	stats *allocStats
	tr    *tracer
}

func wrapPolicy(p policy.Policy, stats *allocStats, tr *tracer) policy.Policy {
	return &timedPolicy{inner: p, stats: stats, tr: tr}
}

func wrapPolicies(ps []policy.Policy, stats *allocStats, tr *tracer) []policy.Policy {
	out := make([]policy.Policy, len(ps))
	for i, p := range ps {
		out[i] = wrapPolicy(p, stats, tr)
	}
	return out
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Allocate(sys policy.System, jobs []policy.JobInfo) (policy.Allocation, error) {
	h := p.tr.begin("policy.allocate", p.tr.parent())
	start := time.Now()
	alloc, err := p.inner.Allocate(sys, jobs)
	p.stats.observe(time.Since(start))
	h.end()
	return alloc, err
}
