// Package service is powerstackd's hosting layer: long-lived facility
// instances paced against the wall clock, multiplexed behind the /v1
// HTTP/JSON API whose wire types live in api/v1. The package owns every
// conversion between wire shapes and internal simulation types; handlers
// never leak internal structs onto the wire.
//
// A Host carries any number of named instances. Each hosted instance runs
// on its own pacer goroutine, advancing the re-entrant facility core
// (facility.Instance) by a fixed virtual quantum per wall-clock beat —
// Speedup virtual seconds per wall second — so a two-hour virtual run can
// play out in seconds for tests or in minutes for demos. All access to an
// instance goes through its mutex: the core itself is single-goroutine,
// exactly like the batch simulation it replays.
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"powerstack/internal/facility"
	"powerstack/internal/obs"
	"powerstack/internal/units"
)

// DefaultSpeedup is the pacer's virtual-per-wall ratio when a config does
// not choose one: a virtual minute per wall second.
const DefaultSpeedup = 60

// errNotFound marks lookups of unknown instances and jobs; the HTTP layer
// maps it to 404.
var errNotFound = errors.New("service: not found")

// InstanceConfig describes one hosted instance.
type InstanceConfig struct {
	// Name addresses the instance in the API ("instance" request fields).
	Name string
	// Facility is the simulated world. Service-mode configs usually set
	// DisableArrivals so every job is an external submission; leaving the
	// Poisson process on gives a background-traffic instance.
	Facility facility.Config
	// Speedup is the pacer's ratio of virtual to wall time (60 = one
	// virtual minute per wall second). Zero selects DefaultSpeedup.
	Speedup float64
	// Quantum is the virtual span advanced per pacer beat. Zero selects
	// the facility Tick (its telemetry cadence), falling back to one
	// virtual second.
	Quantum time.Duration
}

// Host is a set of named, paced facility instances plus the shared
// observability sink the /v1 API and debug surface report from.
type Host struct {
	sink *obs.Sink

	mu          sync.RWMutex
	insts       map[string]*hosted
	defaultName string

	// beats starts a pacer's clock: a channel delivering one value per
	// beat, every wall interval, and the function that stops it. Tests
	// swap in a clock they beat by hand.
	beats func(wall time.Duration) (<-chan time.Time, func())
}

// NewHost returns an empty host recording through sink (nil disables
// instrumentation and the event stream).
func NewHost(sink *obs.Sink) *Host {
	return &Host{sink: sink, insts: make(map[string]*hosted), beats: wallBeats}
}

// wallBeats is the pacer's wall clock: a ticker at the beat interval.
func wallBeats(wall time.Duration) (<-chan time.Time, func()) {
	tick := time.NewTicker(wall)
	return tick.C, tick.Stop
}

// hosted is one instance with its pacer. The mutex serializes every touch
// of the core — pacer beats and request handlers alike.
type hosted struct {
	name    string
	speedup float64
	quantum time.Duration

	cancel context.CancelFunc
	ctx    context.Context
	done   chan struct{}

	mu     sync.Mutex
	in     *facility.Instance
	res    *facility.Result
	runErr error
}

// Add builds, starts, and begins pacing an instance. The first instance
// added becomes the default target for requests that omit one. An
// instance whose facility config carries no Obs sink inherits the host's.
// The host lock is held across construction: a duplicate name is refused
// before the new world touches any state (configs may share node sets
// with live instances, so a stillborn duplicate must never be built).
func (h *Host) Add(cfg InstanceConfig) error {
	if cfg.Name == "" {
		return errors.New("service: instance name required")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.insts[cfg.Name]; dup {
		return fmt.Errorf("service: instance %s already hosted", cfg.Name)
	}
	if cfg.Speedup <= 0 {
		cfg.Speedup = DefaultSpeedup
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = cfg.Facility.Tick
		if cfg.Quantum <= 0 {
			cfg.Quantum = time.Second
		}
	}
	if cfg.Facility.Obs == nil {
		cfg.Facility.Obs = h.sink
	}
	in, err := facility.NewInstance(cfg.Facility)
	if err != nil {
		return fmt.Errorf("service: instance %s: %w", cfg.Name, err)
	}
	if err := in.Start(); err != nil {
		return fmt.Errorf("service: instance %s: %w", cfg.Name, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hi := &hosted{
		name: cfg.Name, speedup: cfg.Speedup, quantum: cfg.Quantum,
		cancel: cancel, ctx: ctx, done: make(chan struct{}), in: in,
	}
	h.insts[cfg.Name] = hi
	if h.defaultName == "" {
		h.defaultName = cfg.Name
	}
	go hi.pace(h.beats)
	return nil
}

// pace advances the instance by one virtual quantum every quantum/speedup
// of wall time until the horizon, shutdown, or a core error. Beats landing
// on a paused instance are skipped, not accumulated — pausing stretches
// wall time rather than causing a catch-up burst on resume.
func (hi *hosted) pace(clock func(wall time.Duration) (<-chan time.Time, func())) {
	defer close(hi.done)
	wall := time.Duration(float64(hi.quantum) / hi.speedup)
	if wall < time.Millisecond {
		wall = time.Millisecond
	}
	beats, stop := clock(wall)
	defer stop()
	for {
		select {
		case <-hi.ctx.Done():
			return
		case <-beats:
		}
		hi.mu.Lock()
		if hi.in.State() == facility.InstanceClosed {
			hi.mu.Unlock()
			return
		}
		err := hi.in.Step(hi.ctx, hi.in.Now()+hi.quantum)
		done := hi.in.Done()
		if err != nil && !errors.Is(err, facility.ErrInstancePaused) && !errors.Is(err, context.Canceled) {
			hi.runErr = err
		}
		hi.mu.Unlock()
		switch {
		case err == nil:
		case errors.Is(err, facility.ErrInstancePaused):
			continue
		default:
			return
		}
		if done {
			return
		}
	}
}

// hosted resolves an instance by name; empty selects the default.
func (h *Host) hosted(name string) (*hosted, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if name == "" {
		name = h.defaultName
	}
	if hi := h.insts[name]; hi != nil {
		return hi, nil
	}
	return nil, fmt.Errorf("%w: instance %q", errNotFound, name)
}

// all returns the hosted instances sorted by name.
func (h *Host) all() []*hosted {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]*hosted, 0, len(h.insts))
	for _, hi := range h.insts {
		out = append(out, hi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// snapshot reads the instance's live state under its lock.
func (hi *hosted) snapshot() facility.Snapshot {
	hi.mu.Lock()
	defer hi.mu.Unlock()
	return hi.in.Snapshot()
}

// SetTenantQuota installs (or, with zero quota, removes) a tenant's
// admission partition on a hosted instance — the programmatic form of
// POST /v1/tenants, for daemon boot-time setup.
func (h *Host) SetTenantQuota(instance, tenant string, quota units.Power) error {
	hi, err := h.hosted(instance)
	if err != nil {
		return err
	}
	hi.mu.Lock()
	defer hi.mu.Unlock()
	return hi.in.SetTenantQuota(tenant, quota)
}

// Result returns a closed instance's finalized result (available after
// Shutdown).
func (h *Host) Result(name string) (*facility.Result, error) {
	hi, err := h.hosted(name)
	if err != nil {
		return nil, err
	}
	hi.mu.Lock()
	defer hi.mu.Unlock()
	if hi.res == nil {
		return nil, fmt.Errorf("service: instance %s not yet closed", hi.name)
	}
	return hi.res, nil
}

// Shutdown stops every pacer, waits for each (bounded by ctx), and closes
// the instances, finalizing their results for Result. The first error is
// returned; shutdown proceeds through the rest regardless.
func (h *Host) Shutdown(ctx context.Context) error {
	var firstErr error
	for _, hi := range h.all() {
		hi.cancel()
		select {
		case <-hi.done:
		case <-ctx.Done():
			if firstErr == nil {
				firstErr = ctx.Err()
			}
		}
		hi.mu.Lock()
		if hi.res == nil {
			res, err := hi.in.Close()
			if err != nil && !errors.Is(err, facility.ErrInstanceClosed) && firstErr == nil {
				firstErr = err
			}
			hi.res = res
		}
		hi.mu.Unlock()
	}
	return firstErr
}
