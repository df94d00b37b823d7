package facility

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"powerstack/internal/cluster"
	"powerstack/internal/fault"
	"powerstack/internal/msr"
	"powerstack/internal/units"
)

// checkInvariants returns the first violated invariant of a live instance,
// nil when all hold. It holds between any two Instance calls:
//
//   - job conservation: every submission that entered the queue is
//     completed, running, queued or killed (rejections never enter it, and
//     preempted or crash-requeued jobs are back in the queue);
//   - budget compliance: under the preempt and kill responses the
//     committed power never exceeds the budget in force (throttle keeps
//     every job running and may overrun it);
//   - dispatch stability: no queued job fits that the instance left
//     unstarted;
//   - one running list: the active list is the manager's schedule, index
//     for index, and each active job's record points back at it;
//   - one record per job: each record's state agrees with the counters —
//     as many running, queued, completed, killed and rejected records as
//     the instance reports — and exactly the running records carry a run;
//   - energy counters never fall: with prev, the previous check's counter
//     reading, no socket's package or DRAM counter stepped backwards since
//     (see counterSample.check). prev is updated for the next check; nil
//     skips this invariant.
func checkInvariants(in *Instance, prev *counterSample) error {
	st := in.st
	sn := in.Snapshot()
	if accounted := sn.Completed + len(sn.Running) + sn.QueuedJobs + sn.Killed; sn.Submitted != accounted {
		return fmt.Errorf("%d submitted, but completed %d + running %d + queued %d + killed %d = %d",
			sn.Submitted, sn.Completed, len(sn.Running), sn.QueuedJobs, sn.Killed, accounted)
	}
	if st.cfg.emergency() != EmergencyThrottle && sn.CommittedPower > sn.Budget {
		return fmt.Errorf("committed %v over budget %v", sn.CommittedPower, sn.Budget)
	}
	if st.sched.CanDispatch() {
		return fmt.Errorf("a queued job fits but was not dispatched")
	}
	jobs := st.mgr.Jobs()
	if len(jobs) != len(st.active) {
		return fmt.Errorf("%d active jobs, %d scheduled", len(st.active), len(jobs))
	}
	for i, r := range st.active {
		if r.sj != jobs[i] {
			return fmt.Errorf("active[%d] is %s, the schedule's is %s", i, r.sj.Spec.ID, jobs[i].Spec.ID)
		}
		if r.rec.run != r || r.rec.ID != r.sj.Spec.ID {
			return fmt.Errorf("active job %s: its record does not point back at it", r.sj.Spec.ID)
		}
	}
	count := map[JobState]int{}
	for id, rec := range st.jobs {
		if rec.ID != id {
			return fmt.Errorf("record %s filed under %s", rec.ID, id)
		}
		if (rec.run != nil) != (rec.State == JobRunning) {
			return fmt.Errorf("job %s is %s with run %v", id, rec.State, rec.run != nil)
		}
		count[rec.State]++
	}
	for _, qj := range st.sched.Queue() {
		if rec := st.jobs[qj.Spec.ID]; rec == nil || rec.State != JobQueued {
			return fmt.Errorf("queued job %s has no queued record", qj.Spec.ID)
		}
	}
	for _, c := range []struct {
		state JobState
		want  int
	}{
		{JobRunning, len(st.active)},
		{JobQueued, sn.QueuedJobs},
		{JobCompleted, sn.Completed},
		{JobKilled, sn.Killed},
		{JobRejected, sn.Rejected},
	} {
		if count[c.state] != c.want {
			return fmt.Errorf("%d %s records, want %d", count[c.state], c.state, c.want)
		}
	}
	if prev != nil {
		return prev.check(in)
	}
	return nil
}

// counterSample is one reading of every socket's package and DRAM energy
// counter, in cfg.Nodes and socket order, and the instance time it was
// taken at.
type counterSample struct {
	primed    bool
	at        time.Duration
	pkg, dram []uint32
}

// check reads every counter and fails on one that stepped backwards since
// the previous reading, modulo 2^32: a 32-bit difference that is negative
// as a signed value. That reading is sound while no counter can have
// advanced by 2^31 units, so a step is judged only when the socket's
// largest draw — its TDP (no cap exceeds it, and the lowest P-state draws
// less) or DRAMMaxPower — over the elapsed time plus two telemetry ticks
// stays below that. The ticks cover settlement: counters advance by whole
// iterations, at samples and when a job's operating point changes, so a
// reading trails the clock by up to a tick and a probe's iteration runs
// ahead of it. Reading is privileged, so armed MSR faults do not see it.
func (c *counterSample) check(in *Instance) error {
	now := in.Now()
	span := (now - c.at + 2*in.st.cfg.Tick).Seconds()
	k := 0
	for _, n := range in.st.cfg.Nodes {
		for s, su := range n.Sockets() {
			pkg := uint32(su.Dev.PrivilegedRead(msr.MSRPkgEnergyStatus))
			dram := uint32(su.Dev.PrivilegedRead(msr.MSRDramEnergyStatus))
			if !c.primed {
				c.pkg, c.dram = append(c.pkg, pkg), append(c.dram, dram)
				k++
				continue
			}
			unit := float64(su.Rapl.EnergyUnit())
			for _, ctr := range []struct {
				name      string
				max       units.Power
				was, read uint32
			}{
				{"package", su.Model.Spec.TDP, c.pkg[k], pkg},
				{"DRAM", su.Model.Spec.DRAMMaxPower, c.dram[k], dram},
			} {
				if float64(ctr.max)*span/unit < 1<<31 && int32(ctr.read-ctr.was) < 0 {
					return fmt.Errorf("node %s socket %d: %s energy counter fell from %#x to %#x between %v and %v",
						n.ID, s, ctr.name, ctr.was, ctr.read, c.at, now)
				}
			}
			c.pkg[k], c.dram[k] = pkg, dram
			k++
		}
	}
	c.primed, c.at = true, now
	return nil
}

// TestInstanceInvariantsHold drives one instance per policy scope and
// emergency response through a long seeded sequence of the fuzz target's
// commands under the pipeline fault plan, with arrivals on and
// checkpointing, and checks every invariant after every command.
func TestInstanceInvariantsHold(t *testing.T) {
	src, db, workloads := facilityEnv(t, 24)
	for _, mode := range []string{ScaleAuto, ScaleOn} {
		for _, resp := range []EmergencyPolicy{EmergencyPreempt, EmergencyKill, EmergencyThrottle} {
			in := fuzzInstance(t, mode, resp, 1, func() Config {
				cfg := baseConfig(cluster.ClonePool(src), db, workloads)
				cfg.JobSizes = []int{2, 4, 8}
				cfg.Duration = 2 * time.Hour
				return cfg
			})
			rng := rand.New(rand.NewPCG(7, uint64(len(resp))))
			var counters counterSample
			for i := 0; i < 96; i++ {
				cmd := instanceCommand{op: byte(rng.IntN(opFork)), arg: byte(rng.IntN(256))}
				_ = cmd.apply(in, workloads, nil) // refusals are part of the sequence
				if err := checkInvariants(in, &counters); err != nil {
					t.Fatalf("scale %q %s command %d %+v: %v", mode, resp, i, cmd, err)
				}
			}
			if _, err := in.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPL1ReadFaultQuarantinesNode pins the response to a power-limit read
// failure during a probe: the instance keeps stepping, the failing node is
// drained (quarantined) and its job requeued, and the job restarts on
// healthy nodes. The fault is armed on a running job's host after its caps
// are programmed, and a slow-node window then re-probes every job without
// writing a cap, so the probe, not a cap write, meets the fault.
func TestPL1ReadFaultQuarantinesNode(t *testing.T) {
	cfg, workloads := serviceConfig(t)
	cfg.Faults = fault.NewPlan(fault.Injection{
		Kind: fault.SlowNode, Node: cfg.Nodes[5].ID, At: 10 * time.Minute, Duration: 5 * time.Minute, Factor: 1.2,
	})
	in, err := NewInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Start(); err != nil {
		t.Fatal(err)
	}
	id, err := in.Inject(0, Submission{Workload: workloads[0], Nodes: 2, Iterations: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := in.Step(ctx, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	bad := in.st.active[0].sj.Job.Hosts[0].Node
	fault.NewPlan(fault.Injection{Kind: fault.MSRReadFault, Node: bad.ID, Reg: msr.MSRPkgPowerLimit}).Arm(cfg.Nodes, nil)
	if err := in.Step(ctx, 20*time.Minute); err != nil {
		t.Fatalf("Step past the read fault: %v", err)
	}
	if err := checkInvariants(in, nil); err != nil {
		t.Fatal(err)
	}
	sn := in.Snapshot()
	if sn.Quarantined != 1 || sn.Requeued != 1 {
		t.Fatalf("quarantined %d, requeued %d; want the faulty node drained and its job requeued once", sn.Quarantined, sn.Requeued)
	}
	if ji, _ := in.Job(id); ji.State != JobRunning || ji.Requeues != 1 {
		t.Fatalf("job after the read fault = %+v, want running again after one requeue", ji)
	}
	for _, h := range in.st.active[0].sj.Job.Hosts {
		if h.Node == bad {
			t.Fatalf("job restarted on the quarantined node %s", bad.ID)
		}
	}
	if err := in.Step(ctx, in.Horizon()); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Close(); err != nil {
		t.Fatal(err)
	}
}
