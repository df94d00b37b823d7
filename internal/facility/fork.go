package facility

// Forking a running instance. A facility run is fully determined by its
// state at any instant: the node registers, the manager and scheduler, the
// job records, the telemetry hierarchy, the two kinds of random streams
// (the arrival stream and each job's noise stream) and the event queue,
// which holds only data (see event.go). Fork copies all of it onto a
// second pool of the same nodes, so the copy continues exactly as the
// original would have — unless it is told to respond differently. The
// campaign engine uses this to run the shared prefix of scenarios that
// differ only in their emergency response once (campaign.Runner.Run).

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"powerstack/internal/bsp"
	"powerstack/internal/node"
	"powerstack/internal/obs"
)

// Fork returns an independent copy of a started instance that continues on
// nodes under the given emergency response. nodes must be a same-ID copy
// of the instance's nodes in the same order and in their current state:
// cluster.PoolState.CopyFrom makes one. The copy has the instance's
// lifecycle state, budget timeline, job records, queue and pending events;
// stepping it to the horizon produces the Result the instance itself would
// produce under that response. Its root span opens under parent. The two
// instances share only what neither writes — the characterization
// database, the policy, the fault plan and the caller's sink — so either
// may be stepped, forked or closed without affecting the other.
func (in *Instance) Fork(nodes []*node.Node, emergency EmergencyPolicy, parent obs.SpanContext) (*Instance, error) {
	switch in.state {
	case InstanceRunning, InstancePaused:
	case InstanceClosed:
		return nil, ErrInstanceClosed
	default:
		return nil, ErrInstanceNotStarted
	}
	if !emergency.Valid() {
		return nil, fmt.Errorf("facility: unknown emergency policy %q", emergency)
	}
	st, err := in.st.fork(nodes, emergency)
	if err != nil {
		return nil, err
	}
	st.cfg.SpanParent = parent
	sp := st.obs.StartSpan(parent, "facility", "facility_run").
		SetIter(len(nodes)).SetValue(st.cfg.SystemBudget.Watts())
	st.spanCtx = sp.Ctx()
	return &Instance{st: st, state: in.state, sp: sp}, nil
}

// fork copies the simulation onto nodes. Every node reference moves to its
// counterpart at the same slot, every callback and sink that captures the
// state is rebound to the copy, and every slice either side may append to
// is copied, never shared. Scratch that a replan or sample rebuilds before
// reading (the pipeline, plan and allocator buffers, readFaults) starts
// empty.
func (st *simState) fork(nodes []*node.Node, emergency EmergencyPolicy) (*simState, error) {
	if len(nodes) != len(st.cfg.Nodes) {
		return nil, fmt.Errorf("facility: cannot fork a %d-node instance onto %d nodes", len(st.cfg.Nodes), len(nodes))
	}
	mgr, err := st.mgr.Clone(nodes)
	if err != nil {
		return nil, err
	}
	f := &simState{
		cfg:          st.cfg,
		pol:          st.pol,
		db:           st.db,
		mgr:          mgr,
		sched:        st.sched.Clone(mgr),
		start:        st.start,
		nodeByID:     make(map[string]*node.Node, len(nodes)),
		scale:        st.scale,
		jobs:         make(map[string]*job, len(st.jobs)),
		jobSeq:       st.jobSeq,
		extSeq:       st.extSeq,
		timeline:     st.timeline,
		deferred:     slices.Clone(st.deferred),
		steps:        slices.Clone(st.steps),
		curBudget:    st.curBudget,
		horizon:      st.horizon,
		busyNodes:    st.busyNodes,
		busyAt:       st.busyAt,
		busyIntegral: st.busyIntegral,
		lastSample:   st.lastSample,
		round:        st.round,
		dropStarts:   st.dropStarts,
		dropCursor:   st.dropCursor,
		pool:         &workerPool{workers: st.cfg.Parallelism},
	}
	f.cfg.Nodes = nodes
	f.cfg.Emergency = emergency
	pcg := *st.pcg
	f.pcg = &pcg
	f.rng = rand.New(f.pcg)
	res := *st.res
	res.Trace = slices.Clone(st.res.Trace)
	f.res = &res
	for _, n := range nodes {
		f.nodeByID[n.ID] = n
	}

	// Job records, then the running jobs: active is index for index the
	// manager's schedule, which the manager clone keeps in order.
	recs := make(map[*job]*job, len(st.jobs))
	for id, rec := range st.jobs {
		c := *rec
		c.run = nil
		f.jobs[id] = &c
		recs[rec] = &c
	}
	remap := func(n *node.Node) *node.Node { return nodes[n.Slot()] }
	f.active = make([]*evJob, len(st.active))
	for i, r := range st.active {
		c := *r
		c.sj = mgr.Jobs()[i]
		c.rec = recs[r.rec]
		c.rec.run = &c
		// The probe result gets storage of its own and the copy's next
		// probes fill fresh buffers: where a probe's storage lives is
		// unobservable (testFreshProbeBuffers pins that).
		c.bufs = [2]bsp.IterationScratch{}
		c.iter.PerHost = slices.Clone(r.iter.PerHost)
		for h := range c.iter.PerHost {
			c.iter.PerHost[h].Node = remap(c.iter.PerHost[h].Node)
		}
		f.active[i] = &c
	}

	// The event queue: a completion names its job record, which moves to
	// the copy's. A cancelled completion may name a record no longer
	// tracked; it never dispatches.
	f.eng = st.eng.Clone(func(a evArg) evArg {
		if a.rec != nil {
			a.rec = recs[a.rec]
		}
		return a
	})

	// Rebind everything that captures the state.
	f.obs = st.cfg.Obs.WithVClock(f.eng.Now)
	f.eng.Obs = f.obs
	mgr.Obs = f.obs
	mgr.OnQuarantine = func(string, string) { f.res.Quarantined++ }
	mgr.OnRejoin = func(string) { f.res.Rejoined++ }
	mgr.BeforeSwap = f.settleJob
	root, err := st.root.Clone(nodes, f.obs)
	if err != nil {
		return nil, err
	}
	f.root = root
	root.SetFanOut(f.pool.run, testLeafChunk)
	if st.cfg.Obs != nil {
		for _, n := range nodes {
			n.SetObs(f.obs)
		}
	}
	return f, nil
}
