// Package charz implements the workload characterization pipeline of
// Section IV-B. For each kernel configuration it performs the two
// pre-characterization runs the paper's policies consume:
//
//   - a GEOPM *monitor* run with no power constraint, yielding the maximum
//     power each workload consumes (Figure 4, "Metric (a)"), and
//   - a GEOPM *power balancer* run at a TDP budget, yielding the minimum
//     power each workload needs to complete execution without lengthening
//     its critical path (Figure 5, "Metric (b)").
//
// The gap between the two is the opportunity application awareness can
// harvest. Results are stored in a DB keyed by configuration name, which
// the Section III policies and the Table III budget selection read.
package charz

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"powerstack/internal/bsp"
	"powerstack/internal/geopm"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
	"powerstack/internal/units"
)

// Entry is the characterization record of one kernel configuration.
type Entry struct {
	Config kernel.Config `json:"config"`
	Hosts  int           `json:"hosts"`

	// Monitor-run observations (no power constraint).
	MonitorHostPower    units.Power `json:"monitor_host_power"`     // mean per-host power: the Figure 4 cell
	MonitorMaxHostPower units.Power `json:"monitor_max_host_power"` // most power-hungry host
	MonitorCriticalPwr  units.Power `json:"monitor_critical_power"` // most demanding critical host
	MonitorWaitingPwr   units.Power `json:"monitor_waiting_power"`  // most demanding waiting host (0 if none)
	MonitorIterTime     time.Duration

	// Balancer-run observations (TDP budget). The per-role "needed"
	// values take the maximum across hosts of that role: provisioning a
	// role to its most demanding host is what keeps hardware variation
	// from throttling the slower parts when a policy applies the
	// characterization to fresh nodes.
	BalancerHostPower units.Power `json:"balancer_host_power"` // mean per-host power: the Figure 5 cell
	NeededCritical    units.Power `json:"needed_critical"`     // needed power of the most demanding critical host
	NeededWaiting     units.Power `json:"needed_waiting"`      // needed power of the most demanding waiting host (0 if none)
	NeededMin         units.Power `json:"needed_min"`          // least needed by any host
	NeededMax         units.Power `json:"needed_max"`          // most needed by any host
	NeededMean        units.Power `json:"needed_mean"`         // mean across hosts (Table III budget selection)
	BalancerIterTime  time.Duration
}

// Valid reports whether the entry is usable by the policies: all power
// observations finite and non-negative, the load-bearing ones positive, and
// a positive host count. A corrupted entry (fault-plan injection or a
// damaged database file) fails this check, which is what routes its jobs to
// the StaticCaps fallback instead of poisoning allocations with NaN caps.
func (e Entry) Valid() bool {
	musts := []units.Power{e.MonitorHostPower, e.MonitorMaxHostPower, e.MonitorCriticalPwr, e.NeededCritical, e.NeededMean}
	for _, p := range musts {
		if math.IsNaN(p.Watts()) || math.IsInf(p.Watts(), 0) || p <= 0 {
			return false
		}
	}
	// Waiting-role powers are legitimately zero for mixes with no waiting
	// hosts; they only need to be finite and non-negative.
	mays := []units.Power{e.MonitorWaitingPwr, e.NeededWaiting, e.NeededMin, e.NeededMax, e.BalancerHostPower}
	for _, p := range mays {
		if math.IsNaN(p.Watts()) || math.IsInf(p.Watts(), 0) || p < 0 {
			return false
		}
	}
	return e.Hosts > 0
}

// NeededForRole returns the characterized needed power of a host with the
// given role.
func (e Entry) NeededForRole(r bsp.Role) units.Power {
	if r == bsp.Waiting {
		return e.NeededWaiting
	}
	return e.NeededCritical
}

// MonitorPowerForRole returns the observed (performance-agnostic) power of
// a host with the given role under the monitor run.
func (e Entry) MonitorPowerForRole(r bsp.Role) units.Power {
	if r == bsp.Waiting {
		return e.MonitorWaitingPwr
	}
	return e.MonitorCriticalPwr
}

// Options tune the characterization runs.
type Options struct {
	// MonitorIters is the iteration count of the monitor run.
	MonitorIters int
	// BalancerIters is the iteration count of the balancer run; it must
	// cover the balancer's convergence horizon.
	BalancerIters int
	// Seed drives the jobs' OS-noise streams.
	Seed uint64
	// NoiseSigma overrides the BSP noise level (negative keeps default).
	NoiseSigma float64
}

// Characterize runs the two-pass characterization of one configuration on
// the given nodes, restoring the nodes' TDP limits afterwards.
func Characterize(cfg kernel.Config, nodes []*node.Node, opt Options) (Entry, error) {
	if len(nodes) == 0 {
		return Entry{}, errors.New("charz: need at least one node")
	}
	if opt.MonitorIters <= 0 || opt.BalancerIters <= 0 {
		return Entry{}, errors.New("charz: iteration counts must be positive")
	}

	entry := Entry{Config: cfg, Hosts: len(nodes)}

	// Pass 1: monitor, no power constraint (power-on TDP limits).
	if err := resetLimits(nodes); err != nil {
		return Entry{}, err
	}
	monJob, err := bsp.NewJob("charz-monitor-"+cfg.Name(), cfg, nodes, opt.Seed)
	if err != nil {
		return Entry{}, err
	}
	if opt.NoiseSigma >= 0 {
		monJob.NoiseSigma = opt.NoiseSigma
	}
	monCtl, err := geopm.NewController(monJob, geopm.Monitor{}, 0)
	if err != nil {
		return Entry{}, err
	}
	monRep, err := monCtl.Run(opt.MonitorIters)
	if err != nil {
		return Entry{}, err
	}
	entry.MonitorHostPower = monRep.MeanHostPower()
	entry.MonitorIterTime = monRep.Elapsed / time.Duration(monRep.Iterations)
	entry.MonitorMaxHostPower, _ = maxHostPower(monRep)
	entry.MonitorCriticalPwr, entry.MonitorWaitingPwr = maxPowerByRole(monRep)

	// Pass 2: power balancer at a TDP budget.
	if err := resetLimits(nodes); err != nil {
		return Entry{}, err
	}
	balJob, err := bsp.NewJob("charz-balancer-"+cfg.Name(), cfg, nodes, opt.Seed+1)
	if err != nil {
		return Entry{}, err
	}
	if opt.NoiseSigma >= 0 {
		balJob.NoiseSigma = opt.NoiseSigma
	}
	budget := tdpBudget(nodes)
	balCtl, err := geopm.NewController(balJob, geopm.NewPowerBalancer(), budget)
	if err != nil {
		return Entry{}, err
	}
	balRep, err := balCtl.Run(opt.BalancerIters)
	if err != nil {
		return Entry{}, err
	}
	entry.BalancerHostPower = balRep.MeanHostPower()
	entry.BalancerIterTime = balRep.Elapsed / time.Duration(balRep.Iterations)
	fillNeeded(&entry, balRep)

	if err := resetLimits(nodes); err != nil {
		return Entry{}, err
	}
	return entry, nil
}

// fillNeeded derives per-host "needed power" from the balancer report: a
// host whose converged limit was cut below TDP needs that limit; a host the
// balancer left uncapped needs only what it actually drew.
func fillNeeded(e *Entry, rep geopm.Report) {
	n := 0
	e.NeededMin = units.Power(1e18)
	for _, h := range rep.Hosts {
		// A host power-bound at its converged limit needs that limit; a
		// host below it (e.g. one the balancer left uncapped) needs only
		// what it draws.
		needed := h.FinalLimit
		if h.MeanPower < needed {
			needed = h.MeanPower
		}
		if h.Role == bsp.Critical {
			if needed > e.NeededCritical {
				e.NeededCritical = needed
			}
		} else if needed > e.NeededWaiting {
			e.NeededWaiting = needed
		}
		if needed < e.NeededMin {
			e.NeededMin = needed
		}
		if needed > e.NeededMax {
			e.NeededMax = needed
		}
		e.NeededMean += needed
		n++
	}
	if n > 0 {
		e.NeededMean /= units.Power(n)
	}
}

func maxHostPower(rep geopm.Report) (units.Power, string) {
	var mx units.Power
	id := ""
	for _, h := range rep.Hosts {
		if h.MeanPower > mx {
			mx = h.MeanPower
			id = h.HostID
		}
	}
	return mx, id
}

// maxPowerByRole returns, for each role, the highest per-host mean power —
// the same most-demanding-host convention as the needed-power fields.
func maxPowerByRole(rep geopm.Report) (critical, waiting units.Power) {
	for _, h := range rep.Hosts {
		if h.Role == bsp.Critical {
			if h.MeanPower > critical {
				critical = h.MeanPower
			}
		} else if h.MeanPower > waiting {
			waiting = h.MeanPower
		}
	}
	return critical, waiting
}

func resetLimits(nodes []*node.Node) error {
	for _, n := range nodes {
		if _, err := n.SetPowerLimit(n.TDP()); err != nil {
			return err
		}
	}
	return nil
}

func tdpBudget(nodes []*node.Node) units.Power {
	var total units.Power
	for _, n := range nodes {
		total += n.TDP()
	}
	return total
}

// DB is a characterization database keyed by configuration name. Put, Get,
// MustGet, Clone, Len, and Save are safe for concurrent use: a campaign's
// workers share one database across scenarios, with cache misses writing
// entries while other scenarios read. Direct access to Entries (JSON
// round-trips, fault-plan corruption of a private clone) remains
// single-goroutine territory.
type DB struct {
	mu      sync.RWMutex
	Entries map[string]Entry `json:"entries"`
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{Entries: map[string]Entry{}} }

// Put stores an entry.
func (db *DB) Put(e Entry) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.Entries == nil {
		db.Entries = map[string]Entry{}
	}
	db.Entries[e.Config.Name()] = e
}

// Get looks up the entry for a configuration.
func (db *DB) Get(cfg kernel.Config) (Entry, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.Entries[cfg.Name()]
	return e, ok
}

// ErrNotCharacterized reports a lookup for a configuration the database has
// no (valid) entry for. Callers check it with errors.Is; the facade
// re-exports it.
var ErrNotCharacterized = errors.New("charz: configuration not characterized")

// MustGet looks up an entry or returns an error naming the configuration,
// wrapping ErrNotCharacterized.
func (db *DB) MustGet(cfg kernel.Config) (Entry, error) {
	e, ok := db.Get(cfg)
	if !ok {
		return Entry{}, fmt.Errorf("%w: %s", ErrNotCharacterized, cfg.Name())
	}
	return e, nil
}

// Clone returns an independent shallow copy of the database: entries are
// values, so mutating (or corrupting) the clone never reaches the original.
func (db *DB) Clone() *DB {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c := NewDB()
	for k, e := range db.Entries {
		c.Entries[k] = e
	}
	return c
}

// Len returns the number of entries.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.Entries)
}

// CharacterizeAll characterizes every configuration on the shared node
// pool, building a database. Cancellation is honored between
// configurations: the two passes of one configuration always run to
// completion (leaving the pool at TDP), and the context error is returned
// before the next configuration starts.
func CharacterizeAll(ctx context.Context, configs []kernel.Config, nodes []*node.Node, opt Options) (*DB, error) {
	db := NewDB()
	for _, cfg := range configs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e, err := Characterize(cfg, nodes, opt)
		if err != nil {
			return nil, fmt.Errorf("charz: %s: %w", cfg.Name(), err)
		}
		db.Put(e)
	}
	return db, nil
}

// Save writes the database as JSON.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(db)
}

// Load reads a database written by Save.
func Load(r io.Reader) (*DB, error) {
	db := NewDB()
	if err := json.NewDecoder(r).Decode(db); err != nil {
		return nil, fmt.Errorf("charz: decoding database: %w", err)
	}
	if db.Entries == nil {
		db.Entries = map[string]Entry{}
	}
	return db, nil
}

// SaveFile writes the database to a file path.
func (db *DB) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := db.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a database from a file path.
func LoadFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
