// Package sim drives the Section VI evaluation: it runs every (workload
// mix, policy, power budget) cell of Figures 7 and 8, pairing OS-noise
// streams across policies so per-iteration savings against the StaticCaps
// baseline are directly comparable, and computes the mean savings and 95%
// confidence intervals the paper reports.
package sim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"powerstack/internal/bsp"
	"powerstack/internal/charz"
	"powerstack/internal/cluster"
	"powerstack/internal/coordinator"
	"powerstack/internal/engine"
	"powerstack/internal/fault"
	"powerstack/internal/geopm"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/policy"
	"powerstack/internal/rm"
	"powerstack/internal/stats"
	"powerstack/internal/units"
	"powerstack/internal/workload"
)

// Cell is one (mix, policy, budget) measurement.
type Cell struct {
	Mix        string
	Policy     string
	Budget     string
	BudgetPwr  units.Power
	Iterations int

	// MeanPower is the run-average total power of the mix.
	MeanPower units.Power
	// Utilization is MeanPower/BudgetPwr — the Figure 7 bar height.
	Utilization float64
	// Overrun is how far the policy's requested allocation exceeded the
	// budget (nonzero for Precharacterized at tight budgets).
	Overrun units.Power

	// SystemTime is the node-weighted mean job elapsed time — the
	// "system time dedicated to jobs".
	SystemTime time.Duration
	// TotalEnergy and TotalFlops aggregate over all jobs.
	TotalEnergy units.Energy
	TotalFlops  units.Flops
	EDP         float64
	FlopsPerW   float64

	// IterTimes[k] is the node-weighted mean iteration time across jobs
	// at iteration k (seconds); IterEnergies[k] the mix energy of
	// iteration k (joules). The paired-savings confidence intervals are
	// computed over these series.
	IterTimes    []float64
	IterEnergies []float64
}

// Runner executes evaluation cells on a node pool.
type Runner struct {
	// Pool is the experiment node set (the medium-frequency cluster).
	Pool []*node.Node
	// DB is the characterization database covering every mix config.
	DB *charz.DB
	// Iters is the per-run iteration count (the paper uses 100).
	Iters int
	// Seed drives job noise; the same seed is reused across policies of
	// a cell so comparisons are paired.
	Seed uint64
	// NoiseSigma overrides BSP noise when non-negative.
	NoiseSigma float64
	// Obs records cell progress and is propagated down through the
	// resource manager, job runtimes, and nodes; nil disables
	// instrumentation.
	Obs *obs.Sink

	// Parallelism is how many workers execute cells concurrently: zero or
	// negative selects runtime.GOMAXPROCS(0), one recovers the sequential
	// grid. Every cell that owns job runs executes them on its own cloned
	// node pool with seeds derived only from the policy-independent job
	// index, so any parallelism level produces byte-identical Cell and
	// Savings values.
	Parallelism int

	// Faults is an optional deterministic fault plan, armed independently
	// on every executing cell's cloned pool. The grid has no simulated
	// clock, so crash injections take their nodes out for the whole run:
	// crashed nodes are excluded from the cell pool (journaled as
	// quarantined) and spare clones are provisioned so the manager can
	// replace hosts it quarantines for persistent cap-write failures
	// mid-cell. A non-empty plan also makes every job run its own cell's:
	// no run is shared across cells. Nil or empty leaves the pool
	// construction — and the grid's byte-identical determinism — exactly
	// as before.
	Faults *fault.Plan

	// dbOnce/dbView cache the plan's corrupted view of DB (the original
	// database is never mutated; an empty plan aliases DB unchanged).
	dbOnce sync.Once
	dbView *charz.DB
}

// db returns the characterization view cells plan against: DB itself, or a
// clone with the fault plan's corruptions poisoned in. Lazy and cached so
// corruption events are journaled once per runner, not once per cell.
func (r *Runner) db() *charz.DB {
	r.dbOnce.Do(func() { r.dbView = r.Faults.CorruptDB(r.DB, r.Obs) })
	return r.dbView
}

// workers returns the effective cell-level worker count.
func (r *Runner) workers() int {
	if r.Parallelism > 0 {
		return r.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// cellSources returns the nodes a cell's pool is cloned from: the first n
// pool nodes or, under a fault plan, the pool without the nodes the plan
// crashes (down for the whole clockless run), extended with spares, one per
// node the plan may force out of service, so quarantine replacement has
// somewhere to draw from. crashed lists the IDs of the skipped nodes.
func (r *Runner) cellSources(n int) (src []*node.Node, crashed []string) {
	if r.Faults.Empty() {
		return r.Pool[:n], nil
	}
	down := map[string]bool{}
	for _, id := range r.Faults.CrashedAtStart() {
		down[id] = true
	}
	want := n + len(r.Faults.ImpactedNodes())
	src = make([]*node.Node, 0, want)
	for _, nd := range r.Pool {
		if len(src) == want {
			break
		}
		if down[nd.ID] {
			crashed = append(crashed, nd.ID)
			continue
		}
		src = append(src, nd)
	}
	return src, crashed
}

// cellPool readies one cell's private pool from clone, a pristine clone of
// cell sources that cover the cell's own as a prefix: the cell takes that
// prefix, crashed nodes are journaled as drained, the runner's sink is
// attached, so RAPL-level events carry host IDs, and the fault plan is
// armed. Re-reading r.Obs for every cell also makes sink attachment
// idempotent and current: a sink swapped between cells reaches the very
// next cell's nodes instead of being latched out forever.
func (r *Runner) cellPool(clone []*node.Node, n int) []*node.Node {
	src, crashed := r.cellSources(n)
	for _, id := range crashed {
		r.Obs.FaultInjected(string(fault.NodeCrash), id, "", 0)
		r.Obs.Quarantine(id, "crash")
	}
	pool := clone[:len(src)]
	if r.Obs != nil {
		for _, nd := range pool {
			nd.SetObs(r.Obs)
		}
	}
	r.Faults.Arm(pool, r.Obs)
	return pool
}

// NewRunner returns a runner with the paper's iteration count.
func NewRunner(pool []*node.Node, db *charz.DB) *Runner {
	return &Runner{Pool: pool, DB: db, Iters: 100, Seed: 1, NoiseSigma: -1}
}

// RunCell executes one mix under one policy at one budget as a one-cell
// grid, through the same plan, execute and assemble steps as Run. The cell
// runs its jobs on a private clone of the runner's pool, so concurrent
// cells are fully isolated and the runner's pool is never mutated (nodes a
// fault plan takes down are quarantined inside the cell's clone world,
// never in the runner's pool). Cancelling ctx is honored at the next job
// run boundary: the run in flight completes, the remaining runs are
// skipped, and the clone pool is released to TDP as always.
func (r *Runner) RunCell(ctx context.Context, mix workload.Mix, p policy.Policy, budgetName string, budget units.Power) (Cell, error) {
	cells, err := r.evaluate(ctx, []workload.Mix{mix}, []cellSpec{{p: p, budgetName: budgetName, budget: budget}})
	if err != nil {
		return Cell{}, err
	}
	return cells[0], nil
}

func (r *Runner) assemble(mix workload.Mix, p policy.Policy, budgetName string, budget, overrun units.Power, reports []geopm.Report) (Cell, error) {
	cell := Cell{
		Mix:        mix.Name,
		Policy:     p.Name(),
		Budget:     budgetName,
		BudgetPwr:  budget,
		Iterations: r.Iters,
		Overrun:    overrun,
	}

	totalNodes := float64(mix.TotalNodes())
	var powerSum float64
	cell.IterTimes = make([]float64, r.Iters)
	cell.IterEnergies = make([]float64, r.Iters)
	for ji, rep := range reports {
		nodes := float64(mix.Jobs[ji].Nodes)
		w := nodes / totalNodes
		cell.SystemTime += time.Duration(w * float64(rep.Elapsed))
		cell.TotalEnergy += rep.TotalEnergy
		cell.TotalFlops += rep.TotalFlops
		powerSum += rep.MeanPower().Watts()
		if len(rep.IterationTimes) != r.Iters {
			return Cell{}, fmt.Errorf("sim: job %s recorded %d iterations, want %d", rep.JobID, len(rep.IterationTimes), r.Iters)
		}
		for k, t := range rep.IterationTimes {
			cell.IterTimes[k] += w * t.Seconds()
		}
		if elapsed := rep.Elapsed.Seconds(); elapsed > 0 {
			for k := range cell.IterEnergies {
				// Per-iteration energy attribution: energy tracks time,
				// so scale by the iteration's share of elapsed time. A
				// degenerate zero-elapsed run has no time base to
				// attribute by, so it contributes nothing — dividing by
				// it would poison the series with NaN and silently
				// propagate into the savings CIs and Welch tests.
				share := rep.IterationTimes[k].Seconds() / elapsed
				cell.IterEnergies[k] += rep.TotalEnergy.Joules() * share
			}
		}
	}
	cell.MeanPower = units.Power(powerSum)
	if budget > 0 {
		cell.Utilization = powerSum / budget.Watts()
	}
	cell.EDP = units.EDP(cell.TotalEnergy, cell.SystemTime)
	cell.FlopsPerW = units.FlopsPerWatt(cell.TotalFlops, cell.TotalEnergy)
	return cell, nil
}

// OnlinePolicyName labels cells produced by the execution-time
// coordination protocol instead of a pre-characterized Section III policy.
const OnlinePolicyName = "OnlineMixedAdaptive"

// RunOnlineCell evaluates the execution-time coordination protocol (the
// paper's future work) on one mix at one budget: no characterization data
// is consumed — job runtimes renegotiate budgets with the resource manager
// every iteration. Job seeds match RunCell's, so the cell pairs with the
// StaticCaps baseline for ComputeSavings. Cancelling ctx stops the
// protocol loop at its next iteration boundary.
func (r *Runner) RunOnlineCell(ctx context.Context, mix workload.Mix, budgetName string, budget units.Power) (Cell, error) {
	if err := ctx.Err(); err != nil {
		return Cell{}, err
	}
	if r.Iters <= 0 {
		return Cell{}, errors.New("sim: iterations must be positive")
	}
	if mix.TotalNodes() > len(r.Pool) {
		return Cell{}, fmt.Errorf("sim: mix %s needs %d nodes, pool has %d", mix.Name, mix.TotalNodes(), len(r.Pool))
	}
	// CellStart precedes every node- and coordinator-level event of the
	// cell, and is emitted on the same condition as CellDone (both are
	// nil-safe), so the journal always shows matched start/done pairs.
	r.Obs.CellStart(mix.Name, OnlinePolicyName, budgetName)
	cellStart := time.Now()
	src, _ := r.cellSources(mix.TotalNodes())
	pool := r.cellPool(cluster.ClonePool(src), mix.TotalNodes())
	var jobs []*bsp.Job
	for i, js := range mix.Jobs {
		j, err := bsp.NewJob(js.ID, js.Config, pool[:js.Nodes], r.Seed+uint64(i)*7919)
		if err != nil {
			return Cell{}, err
		}
		if r.NoiseSigma >= 0 {
			j.NoiseSigma = r.NoiseSigma
		}
		pool = pool[js.Nodes:]
		jobs = append(jobs, j)
	}
	coord, err := coordinator.New(budget, jobs, true)
	if err != nil {
		return Cell{}, err
	}
	coord.Faults = r.Faults
	if r.Obs != nil {
		coord.SetObs(r.Obs)
	}
	// Online cells run on the discrete-event core explicitly: one engine
	// per cell keeps the virtual timeline (and its journaled dispatches)
	// cell-local, which is what lets the parallel grid stay byte-identical.
	res, err := coord.RunOn(ctx, engine.New[int](), r.Iters)
	if err != nil {
		return Cell{}, err
	}
	r.Obs.CellDone(mix.Name, OnlinePolicyName, budgetName, time.Since(cellStart).Seconds())

	cell := Cell{
		Mix:         mix.Name,
		Policy:      OnlinePolicyName,
		Budget:      budgetName,
		BudgetPwr:   budget,
		Iterations:  r.Iters,
		SystemTime:  res.Elapsed,
		TotalEnergy: res.TotalEnergy,
		TotalFlops:  res.TotalFlops,
		MeanPower:   res.MeanPower,
		IterTimes:   res.IterTimes,
	}
	if budget > 0 {
		cell.Utilization = res.MeanPower.Watts() / budget.Watts()
	}
	cell.EDP = units.EDP(cell.TotalEnergy, cell.SystemTime)
	cell.FlopsPerW = units.FlopsPerWatt(cell.TotalFlops, cell.TotalEnergy)
	// Per-iteration energy attribution by time share, as in assemble.
	var sum float64
	for _, t := range res.IterTimes {
		sum += t
	}
	cell.IterEnergies = make([]float64, len(res.IterTimes))
	for k, t := range res.IterTimes {
		if sum > 0 {
			cell.IterEnergies[k] = res.TotalEnergy.Joules() * t / sum
		}
	}
	return cell, nil
}

// Savings is one Figure 8 bar group: the percent improvement of a policy
// over the StaticCaps baseline in the same (mix, budget) cell.
type Savings struct {
	Mix    string
	Policy string
	Budget string

	// Fractions (0.07 = 7%): positive is better than the baseline.
	Time      float64
	Energy    float64
	EDP       float64
	FlopsPerW float64

	// 95% confidence half-widths of the per-iteration paired savings.
	TimeCI   float64
	EnergyCI float64
	// TimeSignificant and EnergySignificant report whether the policy's
	// iteration times/energies differ from the baseline's beyond
	// run-to-run noise (Welch's t-test at the 95% level).
	TimeSignificant   bool
	EnergySignificant bool
}

// ComputeSavings derives the Figure 8 metrics of a policy cell against its
// StaticCaps baseline cell. The two cells must come from the same mix,
// budget, and seed so their iteration noise is paired.
func ComputeSavings(base, pol Cell) (Savings, error) {
	if base.Mix != pol.Mix || base.Budget != pol.Budget {
		return Savings{}, fmt.Errorf("sim: mismatched cells %s/%s vs %s/%s", base.Mix, base.Budget, pol.Mix, pol.Budget)
	}
	if len(base.IterTimes) != len(pol.IterTimes) || len(base.IterTimes) == 0 {
		return Savings{}, errors.New("sim: iteration series mismatch")
	}
	s := Savings{Mix: pol.Mix, Policy: pol.Policy, Budget: pol.Budget}
	s.Time = -stats.RelativeChange(pol.SystemTime.Seconds(), base.SystemTime.Seconds())
	s.Energy = -stats.RelativeChange(pol.TotalEnergy.Joules(), base.TotalEnergy.Joules())
	s.EDP = -stats.RelativeChange(pol.EDP, base.EDP)
	s.FlopsPerW = stats.RelativeChange(pol.FlopsPerW, base.FlopsPerW)

	timeSavings := make([]float64, len(base.IterTimes))
	energySavings := make([]float64, len(base.IterTimes))
	for k := range base.IterTimes {
		if base.IterTimes[k] > 0 {
			timeSavings[k] = 1 - pol.IterTimes[k]/base.IterTimes[k]
		}
		if base.IterEnergies[k] > 0 {
			energySavings[k] = 1 - pol.IterEnergies[k]/base.IterEnergies[k]
		}
	}
	s.TimeCI = stats.ConfidenceInterval95(timeSavings)
	s.EnergyCI = stats.ConfidenceInterval95(energySavings)
	_, s.TimeSignificant = stats.WelchTTest(base.IterTimes, pol.IterTimes)
	_, s.EnergySignificant = stats.WelchTTest(base.IterEnergies, pol.IterEnergies)
	return s, nil
}

// MixResult is one Figure 7/8 column: a mix with its budgets and cells.
type MixResult struct {
	Mix     workload.Mix
	Budgets workload.Budgets
	// Cells[budgetName][policyName] holds the measurement.
	Cells map[string]map[string]Cell
	// Savings[budgetName][policyName] holds the Figure 8 metrics for the
	// dynamic policies.
	Savings map[string]map[string]Savings
}

// Grid is the full evaluation of Figures 7 and 8.
type Grid struct {
	Mixes []MixResult
}

// Run executes the evaluation grid over the given mixes: for each mix and
// budget level it runs all five policies, and computes savings for the
// dynamic policies against StaticCaps. The grid runs in three steps. Plan
// computes every cell's allocation without writing a register and gives
// each (cell, job) pair a run: a job's run depends only on its hosts, its
// seed and its caps, so cells that give a job the same caps, bit for bit,
// share one run, which the first such cell in grid order owns. Execute
// fans the cells that own runs out over one bounded worker pool (see
// Parallelism); each runs on a private clone of the node pool, restored to
// its pristine state before every cell, and never waits on another cell.
// Assemble builds every cell from the shared runs. The result is
// byte-identical to the sequential grid and to running every cell alone.
// Cancelling ctx stops the grid at the next job run boundary: runs in
// flight complete, the rest are skipped, and ctx's error is returned.
func (r *Runner) Run(ctx context.Context, mixes []workload.Mix) (*Grid, error) {
	return r.runGrid(ctx, mixes)
}

// RunMix executes one mix across all budgets and policies, fanning its
// cells out like Run.
func (r *Runner) RunMix(ctx context.Context, mix workload.Mix) (MixResult, error) {
	g, err := r.runGrid(ctx, []workload.Mix{mix})
	if err != nil {
		return MixResult{}, err
	}
	return g.Mixes[0], nil
}

// runGrid selects each mix's budgets, evaluates the grid's cells in
// (mix, budget level, policy) order, and computes the savings. Results
// are index-addressed, so the output is independent of worker
// interleaving.
func (r *Runner) runGrid(ctx context.Context, mixes []workload.Mix) (*Grid, error) {
	pols := policy.All()
	budgets := make([]workload.Budgets, len(mixes))
	var specs []cellSpec
	for mi, mix := range mixes {
		b, err := workload.SelectBudgets(mix, r.db())
		if err != nil {
			return nil, err
		}
		budgets[mi] = b
		for _, level := range b.Levels() {
			for _, p := range pols {
				specs = append(specs, cellSpec{mix: mi, p: p, budgetName: level.Name, budget: level.Power})
			}
		}
	}
	cells, err := r.evaluate(ctx, mixes, specs)
	if err != nil {
		return nil, err
	}

	g := &Grid{}
	for mi, mix := range mixes {
		mr := MixResult{
			Mix:     mix,
			Budgets: budgets[mi],
			Cells:   map[string]map[string]Cell{},
			Savings: map[string]map[string]Savings{},
		}
		for _, level := range budgets[mi].Levels() {
			byPolicy := map[string]Cell{}
			for _, p := range pols {
				byPolicy[p.Name()] = cells[0]
				cells = cells[1:]
			}
			mr.Cells[level.Name] = byPolicy

			base := byPolicy[policy.StaticCaps{}.Name()]
			sv := map[string]Savings{}
			for _, p := range policy.Dynamic() {
				s, err := ComputeSavings(base, byPolicy[p.Name()])
				if err != nil {
					return nil, err
				}
				sv[p.Name()] = s
			}
			mr.Savings[level.Name] = sv
		}
		g.Mixes = append(g.Mixes, mr)
	}
	return g, nil
}

// cellSpec names one cell: a mix, by index, under one policy at one budget.
type cellSpec struct {
	mix        int
	p          policy.Policy
	budgetName string
	budget     units.Power
}

// plannedCell is a cell after the plan step: its allocation and the run
// that measures each job of its mix under the allocation's caps.
type plannedCell struct {
	cellSpec
	// alloc is the policy's allocation. Only an executing cell's Apply
	// reads it after the runs are assigned, so it is dropped once no step
	// needs it, keeping the grid's live heap near one cell's.
	alloc   policy.Allocation
	overrun units.Power
	// runs[j] indexes the grid's run table for the mix's job j.
	runs []int
	// owned lists, in submission order, the jobs whose runs this cell
	// executes; ownedHosts sums their host counts.
	owned      []int
	ownedHosts int
}

// evaluate plans, executes and assembles the given cells and returns them
// in spec order. On failure it returns the error of the first failed cell
// in spec order, after every executing cell has drained.
func (r *Runner) evaluate(ctx context.Context, mixes []workload.Mix, specs []cellSpec) ([]Cell, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.Iters <= 0 {
		return nil, errors.New("sim: iterations must be positive")
	}
	largest := 0
	for _, mix := range mixes {
		if mix.TotalNodes() > len(r.Pool) {
			return nil, fmt.Errorf("sim: mix %s needs %d nodes, pool has %d", mix.Name, mix.TotalNodes(), len(r.Pool))
		}
		largest = max(largest, mix.TotalNodes())
	}
	if len(specs) == 0 {
		return nil, nil
	}
	// Every mix's cell sources are a prefix of the largest mix's: jobs
	// take the leading nodes, and a fault plan only filters and extends
	// the same list.
	src, _ := r.cellSources(largest)
	pools := make([]*cluster.PoolState, min(r.workers(), len(specs)))
	pools[0] = cluster.NewPoolState(src)
	cells, err := r.plan(pools[0].Nodes(), mixes, specs)
	if err != nil {
		return nil, err
	}
	runs := make([]geopm.Report, assignRuns(mixes, cells, !r.Faults.Empty()))
	for i := range cells {
		if len(cells[i].owned) == 0 {
			cells[i].alloc = nil
		}
	}
	if err := r.execute(ctx, src, pools, mixes, cells, runs); err != nil {
		return nil, err
	}
	out := make([]Cell, len(cells))
	for i := range cells {
		c := &cells[i]
		reports := make([]geopm.Report, len(c.runs))
		for j, run := range c.runs {
			reports[j] = runs[run]
		}
		r.Obs.JobRuns(obs.JobRunShared, len(c.runs)-len(c.owned))
		if out[i], err = r.assemble(mixes[c.mix], c.p, c.budgetName, c.budget, c.overrun, reports); err != nil {
			return nil, cellErr(mixes[c.mix], c, err)
		}
	}
	return out, nil
}

// plan computes every cell's allocation without writing a register: the
// cell's mix is submitted to a fresh manager over pool, an unarmed clone of
// the cell sources, and the policy allocates from the manager's job view,
// as an executing cell's manager would. The view reads only host roles and
// limits, which no cell changes, so one pool serves every cell.
func (r *Runner) plan(pool []*node.Node, mixes []workload.Mix, specs []cellSpec) ([]plannedCell, error) {
	cells := make([]plannedCell, len(specs))
	for i, s := range specs {
		cells[i].cellSpec = s
		mgr, err := r.submit(pool, mixes[s.mix])
		if err == nil {
			cells[i].alloc, err = mgr.Plan(s.p, s.budget, r.db())
		}
		if err != nil {
			return nil, cellErr(mixes[s.mix], &cells[i], err)
		}
		cells[i].overrun = rm.Overrun(cells[i].alloc, s.budget)
	}
	return cells, nil
}

// submit builds a manager over pool and submits the mix's jobs with their
// policy-independent seeds, which is what pairs noise across cells.
func (r *Runner) submit(pool []*node.Node, mix workload.Mix) (*rm.Manager, error) {
	mgr := rm.NewManager(pool)
	mgr.Obs = r.Obs
	for i, js := range mix.Jobs {
		sj, err := mgr.Submit(rm.JobSpec{ID: js.ID, Config: js.Config, Nodes: js.Nodes}, r.Seed+uint64(i)*7919)
		if err != nil {
			return nil, err
		}
		if r.NoiseSigma >= 0 {
			sj.Job.NoiseSigma = r.NoiseSigma
		}
	}
	return mgr, nil
}

// assignRuns gives every (cell, job) pair its run and returns the number
// of distinct runs. The run key is the mix, the job and the exact bits of
// every cap the cell's allocation gives the job; the first cell in order
// that holds a key owns its run. perCell adds the cell to the key, so no
// run is shared: a fault plan's countdowns and spare swaps make a job's
// run depend on its whole cell.
func assignRuns(mixes []workload.Mix, cells []plannedCell, perCell bool) int {
	index := map[string]int{}
	var key []byte
	for ci := range cells {
		c := &cells[ci]
		jobs := mixes[c.mix].Jobs
		c.runs = make([]int, len(jobs))
		for j, js := range jobs {
			key = binary.LittleEndian.AppendUint64(key[:0], uint64(c.mix))
			key = binary.LittleEndian.AppendUint64(key, uint64(j))
			for _, w := range c.alloc[js.ID] {
				key = binary.LittleEndian.AppendUint64(key, math.Float64bits(w.Watts()))
			}
			if perCell {
				key = binary.LittleEndian.AppendUint64(key, uint64(ci))
			}
			run, ok := index[string(key)]
			if !ok {
				run = len(index)
				index[string(key)] = run
				c.owned = append(c.owned, j)
				c.ownedHosts += js.Nodes
			}
			c.runs[j] = run
		}
	}
	return len(index)
}

// execute runs every cell's execution step on the worker pool, cells with
// the most owned hosts (host-iterations, at a fixed iteration count) first
// so the longest start early. Worker w executes its cells on pools[w], a
// resettable clone of the cell sources src, built on first use. A cell
// writes only the run slots it owns, so no cell waits on another. Every
// executing cell drains before the first error in cell order is returned.
func (r *Runner) execute(ctx context.Context, src []*node.Node, pools []*cluster.PoolState, mixes []workload.Mix, cells []plannedCell, runs []geopm.Report) error {
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cells[order[a]].ownedHosts > cells[order[b]].ownedHosts })

	errs := make([]error, len(cells))
	taskCh := make(chan int)
	var wg sync.WaitGroup
	for w := range pools {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range taskCh {
				if pools[w] == nil && len(cells[ci].owned) > 0 {
					pools[w] = cluster.NewPoolState(src)
				}
				errs[ci] = r.execCell(ctx, mixes[cells[ci].mix], &cells[ci], pools[w], runs)
			}
		}()
	}
	for _, ci := range order {
		taskCh <- ci
	}
	close(taskCh)
	wg.Wait()
	for ci, err := range errs {
		if err != nil {
			return cellErr(mixes[cells[ci].mix], &cells[ci], err)
		}
	}
	return nil
}

// execCell is one cell's execution step, bracketed by its CellStart and
// CellDone. A cell that owns runs restores its worker's pool ps, submits
// its mix and applies its whole allocation as one cap batch, so cap writes,
// spare swaps and fault countdowns are exactly a full cell's; it then runs the
// jobs it owns under the monitor agent, checking ctx before each run, and
// releases its pool to TDP on every path. A cell that owns no run executes
// nothing.
func (r *Runner) execCell(ctx context.Context, mix workload.Mix, c *plannedCell, ps *cluster.PoolState, runs []geopm.Report) (err error) {
	if err := ctx.Err(); err != nil {
		return err
	}
	r.Obs.CellStart(mix.Name, c.p.Name(), c.budgetName)
	start := time.Now()
	defer func() {
		if err == nil {
			r.Obs.CellDone(mix.Name, c.p.Name(), c.budgetName, time.Since(start).Seconds())
		}
	}()
	if len(c.owned) == 0 {
		return nil
	}
	// The restore makes the worker's pool byte-equivalent to a fresh clone
	// of the sources, without a clone's allocation per cell.
	if err := ps.Restore(); err != nil {
		return err
	}
	mgr, err := r.submit(r.cellPool(ps.Nodes(), mix.TotalNodes()), mix)
	if err != nil {
		return err
	}
	defer func() {
		if rerr := mgr.ReleaseAll(); rerr != nil {
			err = errors.Join(err, fmt.Errorf("sim: releasing cell pool: %w", rerr))
		}
	}()
	err = mgr.Apply(c.alloc)
	c.alloc = nil
	if err != nil {
		return err
	}
	jobs := mgr.Jobs()
	for _, j := range c.owned {
		if err := ctx.Err(); err != nil {
			return err
		}
		ctl, err := geopm.NewController(jobs[j].Job, geopm.Monitor{}, 0)
		if err != nil {
			return err
		}
		ctl.Obs = r.Obs
		rep, err := ctl.Run(r.Iters)
		if err != nil {
			return err
		}
		rep.Hosts = nil // assemble reads only the job totals and iteration times
		runs[c.runs[j]] = rep
		r.Obs.JobRuns(obs.JobRunExecuted, 1)
	}
	return nil
}

// cellErr names the failed cell in err, leaving cancellation bare so
// callers can match it.
func cellErr(mix workload.Mix, c *plannedCell, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("sim: %s/%s/%s: %w", mix.Name, c.budgetName, c.p.Name(), err)
}

// Headline summarizes the paper's abstract claims from a grid: the maximum
// time savings and maximum energy savings achieved by MixedAdaptive over
// StaticCaps anywhere in the grid.
type Headline struct {
	MaxTimeSavings   Savings
	MaxEnergySavings Savings
}

// FindHeadline scans the grid for the headline numbers. The maxima are
// initialized from the first MixedAdaptive cell in grid order, so a grid
// where every saving is negative still reports its best (least bad) cell
// with the Mix/Policy/Budget fields populated instead of a blank
// zero-valued Savings.
func (g *Grid) FindHeadline() Headline {
	var h Headline
	found := false
	name := policy.MixedAdaptive{}.Name()
	for _, mr := range g.Mixes {
		levels := make([]string, 0, len(mr.Savings))
		for lvl := range mr.Savings {
			levels = append(levels, lvl)
		}
		sort.Strings(levels)
		for _, lvl := range levels {
			s, ok := mr.Savings[lvl][name]
			if !ok {
				continue
			}
			if !found {
				h.MaxTimeSavings, h.MaxEnergySavings = s, s
				found = true
				continue
			}
			if s.Time > h.MaxTimeSavings.Time {
				h.MaxTimeSavings = s
			}
			if s.Energy > h.MaxEnergySavings.Energy {
				h.MaxEnergySavings = s
			}
		}
	}
	return h
}
