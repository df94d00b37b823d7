package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"powerstack/internal/charz"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/facility"
	"powerstack/internal/kernel"
	"powerstack/internal/msr"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/policy"
	"powerstack/internal/units"
)

// fleetSize is the fleet run's input size.
type fleetSize struct {
	nodes int
	// horizon is the simulated span, stepped in quantum beats.
	horizon, quantum time.Duration
	// backlog jobs arrive spread over the first quantum, as a queue that
	// built up while the facility was down; after them jobs arrive with
	// exponential gaps of mean interarrival, sized
	// uniformly from sizes, with lengths uniform in [minIters, maxIters].
	backlog            int
	interarrival       time.Duration
	sizes              []int
	minIters, maxIters int
	// wattsPerNode sets the facility budget; at dropAt it drops live to
	// dropFrac of that.
	wattsPerNode float64
	dropAt       time.Duration
	dropFrac     float64
	// busyFloor is the least time-averaged busy-node fraction a valid run
	// keeps.
	busyFloor float64
}

// fleetWorkloads are the kernels fleet jobs run: compute-bound,
// imbalanced and vector-light, so replans move power between job classes.
var fleetWorkloads = []kernel.Config{
	{Intensity: 8, Vector: kernel.YMM, Imbalance: 1},
	{Intensity: 0.5, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 2},
	{Intensity: 32, Vector: kernel.XMM, Imbalance: 1},
}

// fleetJob is one generated submission and its virtual arrival time.
type fleetJob struct {
	at  time.Duration
	sub facility.Submission
}

// fleet drives a loaded 100k-node facility.Instance the way powerstackd
// does, in virtual time: the generated job stream is injected as it comes
// due, Step advances one quantum per beat, a Snapshot is read after every
// step, and one live ScheduleBudget drop strands committed power mid-run.
// The budget binds, so admission is power-bound. It runs the scale path
// with the replan fanned out over GOMAXPROCS workers.
type fleet struct {
	opt  options
	size fleetSize
	jobs []fleetJob
	// parallelism is the replan's worker count.
	parallelism int

	nodes []*node.Node
	inst  *facility.Instance
	db    *charz.DB
}

func newFleet(opt options) *fleet {
	size := fleetSize{
		nodes: 100_000, horizon: 40 * time.Minute, quantum: time.Minute,
		backlog: 243, interarrival: time.Minute, sizes: []int{128, 256, 512},
		minIters: 150_000, maxIters: 800_000,
		wattsPerNode: 150, dropAt: 25 * time.Minute, dropFrac: 0.7,
		busyFloor: 0.45,
	}
	if opt.small {
		size.nodes, size.backlog, size.interarrival = 5_000, 9, 3*time.Minute
	}
	return &fleet{opt: opt, size: size, jobs: fleetStream(opt.seed, size), parallelism: runtime.GOMAXPROCS(0)}
}

// fleetStream generates the job stream from the seed alone. The stream is
// stratified so that seeds differ in order and timing, not in volume: every
// block of consecutive jobs holds each (size, workload) pair once, with
// lengths drawn one from each equal slice of the length range, all in a
// seeded order; and after the backlog, one job arrives at a seeded offset
// inside each interarrival slot.
func fleetStream(seed uint64, size fleetSize) []fleetJob {
	rng := rand.New(rand.NewPCG(seed, 0x5eed_f1ee7))
	block := len(size.sizes) * len(fleetWorkloads)
	var out []fleetJob
	var pairs, slices []int
	for i := 0; ; i++ {
		var at time.Duration
		if i < size.backlog {
			at = size.quantum * time.Duration(i+1) / time.Duration(size.backlog+1)
		} else {
			slot := float64(i-size.backlog) + rng.Float64()
			at = size.quantum + time.Duration(slot*float64(size.interarrival))
		}
		if at >= size.horizon {
			return out
		}
		if i%block == 0 {
			pairs, slices = rng.Perm(block), rng.Perm(block)
		}
		pair, slice := pairs[i%block], slices[i%block]
		span := float64(size.maxIters - size.minIters)
		iters := size.minIters + int(span*(float64(slice)+rng.Float64())/float64(block))
		out = append(out, fleetJob{at: at, sub: facility.Submission{
			ID:         fmt.Sprintf("job%05d", i),
			Workload:   fleetWorkloads[pair%len(fleetWorkloads)],
			Nodes:      size.sizes[pair/len(fleetWorkloads)],
			Iterations: iters,
		}})
	}
}

func (f *fleet) workers() int        { return f.parallelism }
func (f *fleet) reusable() bool      { return false }
func (f *fleet) release()            { f.nodes, f.inst, f.db = nil, nil, nil }
func (f *fleet) publishesDone() bool { return false }

func (f *fleet) budget() units.Power {
	return units.Power(f.size.nodes) * units.Power(f.size.wattsPerNode) * units.Watt
}

// fleetCharNodes is how many spare nodes characterize the fleet's
// workloads. The characterized demand sets how many nodes the budget
// admits; on four nodes it moved the busy count by 5% from seed to seed.
const fleetCharNodes = 64

// setup builds the fleet, characterizes its workloads on spare nodes
// and starts an instance over it; each unit needs a fresh fleet because the
// run mutates node state.
func (f *fleet) setup(ctx context.Context, tr *tracer, sink *obs.Sink, alloc *allocStats) error {
	root := tr.parent()
	h := tr.begin("cluster.new", root)
	c, err := cluster.New(f.size.nodes+fleetCharNodes, cpumodel.Quartz(), cpumodel.QuartzVariation(), f.opt.seed)
	h.end()
	if err != nil {
		return err
	}
	h = tr.begin("charz.characterize", root)
	db, err := charz.CharacterizeAll(ctx, fleetWorkloads, c.Nodes()[f.size.nodes:],
		charz.Options{MonitorIters: 5, BalancerIters: 30, Seed: 3, NoiseSigma: 0})
	h.end()
	if err != nil {
		return err
	}
	f.db = db
	f.nodes = c.Nodes()[:f.size.nodes]
	var pol policy.Policy = policy.MixedAdaptive{}
	if alloc != nil {
		pol = wrapPolicy(pol, alloc, tr)
	}
	cfg := facility.Config{
		Nodes:           f.nodes,
		DB:              f.db,
		Policy:          pol,
		SystemBudget:    f.budget(),
		Emergency:       facility.EmergencyPreempt,
		CheckpointEvery: 20_000,
		DisableArrivals: true,
		Duration:        f.size.horizon,
		Tick:            f.size.quantum,
		ScaleMode:       facility.ScaleOn,
		Parallelism:     f.workers(),
		Seed:            f.opt.seed,
		Obs:             sink,
	}
	h = tr.begin("facility.new_instance", root)
	in, err := facility.NewInstance(cfg)
	h.end()
	if err != nil {
		return err
	}
	h = tr.begin("facility.start", root)
	err = in.Start()
	h.end()
	if err != nil {
		return err
	}
	f.inst = in
	return nil
}

// energyProbe watches the package energy counters of a fixed 1% sample of
// the fleet's sockets. Raw register reads have no side effects on a
// fault-free fleet, so the probe cannot perturb the run.
type energyProbe struct {
	devs []*msr.Device
	last []uint32
	// advanced sums the counters' advance in counter units.
	advanced uint64
}

func newEnergyProbe(nodes []*node.Node) (*energyProbe, error) {
	p := &energyProbe{}
	stride := max(1, len(nodes)/100)
	for i := 0; i < len(nodes); i += stride {
		for _, s := range nodes[i].Sockets() {
			p.devs = append(p.devs, s.Dev)
		}
	}
	p.last = make([]uint32, len(p.devs))
	_, err := p.advance()
	return p, err
}

// advance reads every sampled counter and returns how many went backwards
// since the previous read. The counters are 32 bits wide and wrap, so a
// counter decreased when its signed 32-bit difference is negative.
func (p *energyProbe) advance() (decreased int, err error) {
	for i, d := range p.devs {
		raw, err := d.Read(msr.MSRPkgEnergyStatus)
		if err != nil {
			return decreased, err
		}
		delta := int32(uint32(raw) - p.last[i])
		if delta < 0 {
			decreased++
		} else {
			p.advanced += uint64(delta)
		}
		p.last[i] = uint32(raw)
	}
	return decreased, nil
}

func (f *fleet) unit(ctx context.Context, tr *tracer) (*unitResult, error) {
	in := f.inst
	f.inst = nil
	u := &unitResult{}
	root := tr.begin("fleet.run", 0)
	timed := func(name string, current bool, fn func() error) error {
		var h handle
		if current {
			h = tr.beginCurrent(name, root.id)
		} else {
			h = tr.begin(name, root.id)
		}
		err := u.spent.time(fn)
		h.end()
		return err
	}

	probe, err := newEnergyProbe(f.nodes)
	if err != nil {
		return nil, err
	}
	var steps []facility.Snapshot
	next, injected, dropped := 0, 0, false
	for now := time.Duration(0); now < f.size.horizon; now += f.size.quantum {
		until := now + f.size.quantum
		for ; next < len(f.jobs) && f.jobs[next].at <= until; next++ {
			j := f.jobs[next]
			u.attempted++
			if err := timed("facility.inject", false, func() error {
				_, err := in.Inject(j.at, j.sub)
				return err
			}); err != nil {
				u.check(false, "inject %s at %v: %v", j.sub.ID, j.at, err)
				continue
			}
			injected++
		}
		if !dropped && now >= f.size.dropAt {
			dropped = true
			drop := units.Power(f.size.dropFrac) * f.budget()
			u.attempted++
			if err := timed("facility.schedule_budget", false, func() error { return in.ScheduleBudget(0, drop) }); err != nil {
				u.check(false, "budget drop: %v", err)
			}
		}
		u.attempted++
		if err := timed("facility.step", true, func() error { return in.Step(ctx, until) }); err != nil {
			return nil, fmt.Errorf("step to %v: %w", until, err)
		}
		var sn facility.Snapshot
		_ = timed("facility.snapshot", false, func() error { sn = in.Snapshot(); return nil })
		steps = append(steps, sn)

		// Jobs are conserved: every injected job is completed, running,
		// queued, rejected or killed.
		accounted := sn.Completed + len(sn.Running) + sn.QueuedJobs + sn.Rejected + sn.Killed
		u.check(accounted == injected, "at %v: %d jobs injected but %d accounted for", until, injected, accounted)
		decreased, err := probe.advance()
		if err != nil {
			return nil, err
		}
		u.check(decreased == 0, "at %v: %d sampled energy counters decreased", until, decreased)
		if dropped {
			u.check(sn.CommittedPower <= sn.Budget, "at %v: committed %v over the %v budget after the drop", until, sn.CommittedPower, sn.Budget)
		}
	}
	var res *facility.Result
	if err := timed("facility.close", false, func() (err error) { res, err = in.Close(); return err }); err != nil {
		return nil, err
	}
	root.end()

	last := steps[len(steps)-1]
	maxJob := f.size.sizes[len(f.size.sizes)-1]
	u.check(res.MeanNodeUtilization >= f.size.busyFloor, "mean busy-node fraction %.3f below the %.2f floor", res.MeanNodeUtilization, f.size.busyFloor)
	u.check(last.QueuedJobs > 0 && last.FreeNodes >= maxJob,
		"budget does not bind at the end: %d jobs queued, %d nodes free", last.QueuedJobs, last.FreeNodes)
	u.check(last.Preempted >= 1, "the live budget drop preempted no job")
	u.check(res.TotalEnergy > 0 && probe.advanced > 0, "the run recorded no energy")

	u.work = f.size.horizon.Seconds()
	canon, err := json.Marshal(struct {
		Result *facility.Result
		Steps  []facility.Snapshot
	}{res, steps})
	if err != nil {
		return nil, err
	}
	u.digest = digestOf(canon)
	u.stats = map[string]float64{
		"injected":       float64(injected),
		"completed":      float64(res.Completed),
		"preempted":      float64(res.Preempted),
		"resumed":        float64(res.Resumed),
		"queued_at_end":  float64(res.QueuedAtEnd),
		"events":         float64(res.EventsDispatched),
		"energy_j":       res.TotalEnergy.Joules(),
		"mean_busy_frac": res.MeanNodeUtilization,
		"busy_nodes_end": float64(f.size.nodes - last.FreeNodes),
	}
	u.layer = map[string]float64{
		"facility.completed":      float64(res.Completed),
		"facility.energy_mj":      res.TotalEnergy.Joules() / 1e6,
		"facility.busy_node_frac": res.MeanNodeUtilization,
	}
	return u, nil
}
