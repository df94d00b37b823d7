package facility

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"powerstack/internal/bsp"
	"powerstack/internal/fault"
	"powerstack/internal/msr"
)

// probeInstance starts a no-arrivals instance with two long 2-node jobs
// and steps it to 5 minutes, past their first probes. A slow-node window
// on a host neither job uses opens at 10 minutes and re-probes both
// without writing a cap.
func probeInstance(t *testing.T) *Instance {
	t.Helper()
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
	for _, w := range workloads[:2] {
		if _, err := in.Inject(0, Submission{Workload: w, Nodes: 2, Iterations: 1_000_000}); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Step(context.Background(), 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(in.st.active) != 2 {
		t.Fatalf("%d running jobs, want 2", len(in.st.active))
	}
	return in
}

// armLastHostRead arms a PL1 read fault on the last host of a job that
// lets one read through: the probe plans every host, finishes the
// earlier ones into its buffer, and then fails re-reading the last one.
func armLastHostRead(r *evJob) {
	hosts := r.sj.Job.Hosts
	hosts[len(hosts)-1].Node.Sockets()[0].Dev.ArmFault(msr.OpRead, msr.MSRPkgPowerLimit, 1, errors.New("injected PL1 read fault"))
}

// TestFailedProbeKeepsIter pins the probe double buffer against a probe
// that fails with a bsp.HostError after writing part of its buffer: the
// job keeps the iteration it had, word for word, and keeps its buffer.
// Its requeue then credits at that iteration.
func TestFailedProbeKeepsIter(t *testing.T) {
	in := probeInstance(t)
	r, now := in.st.active[0], in.Now()
	want, wantPer, cur := r.iter, slices.Clone(r.iter.PerHost), r.cur
	armLastHostRead(r)
	ir, k, err := r.measure(now)
	var he *bsp.HostError
	if !errors.As(err, &he) {
		t.Fatalf("probe error %v, want a bsp.HostError", err)
	}
	if err := in.st.applyProbe(r, ir, k, err, now); err != nil {
		t.Fatal(err)
	}
	if r.cur != cur || r.iter.Elapsed != want.Elapsed || !slices.Equal(r.iter.PerHost, wantPer) {
		t.Fatalf("after a failed probe the job's iteration changed: buffer %d → %d, %+v → %+v", cur, r.cur, wantPer, r.iter.PerHost)
	}
	if err := in.Step(context.Background(), 20*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := checkInvariants(in, nil); err != nil {
		t.Fatal(err)
	}
	if sn := in.Snapshot(); sn.Quarantined != 1 || sn.Requeued != 1 {
		t.Fatalf("quarantined %d, requeued %d; want the faulty host drained and its job requeued once", sn.Quarantined, sn.Requeued)
	}
}

// TestReusedProbeBuffersMatchFresh runs the same instance twice, once
// with each job's two reused probe buffers and once measuring every probe
// into fresh storage, through successful re-probes and a probe that fails
// part way with a bsp.HostError. The Results and every register word of
// the pool must be identical.
func TestReusedProbeBuffersMatchFresh(t *testing.T) {
	run := func(fresh bool) (string, []uint64) {
		testFreshProbeBuffers = fresh
		defer func() { testFreshProbeBuffers = false }()
		in := probeInstance(t)
		armLastHostRead(in.st.active[1])
		if err := in.Step(context.Background(), in.Horizon()); err != nil {
			t.Fatal(err)
		}
		if sn := in.Snapshot(); sn.Requeued != 1 {
			t.Fatalf("fresh=%v: requeued %d, want the failed probe's job requeued once", fresh, sn.Requeued)
		}
		res, err := in.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resultJSON(t, res), poolWords(in.st.cfg.Nodes)
	}
	wantRes, wantWords := run(true)
	gotRes, gotWords := run(false)
	if gotRes != wantRes {
		t.Errorf("Results differ:\nreused %s\nfresh  %s", gotRes, wantRes)
	}
	if !slices.Equal(gotWords, wantWords) {
		t.Error("register words differ between reused and fresh probe buffers")
	}
}

// TestProbeMeasureAllocatesNothing is the zero-alloc gate on the facility
// probe: once a job's two probe buffers have grown, measuring it again
// allocates nothing.
func TestProbeMeasureAllocatesNothing(t *testing.T) {
	in := probeInstance(t)
	r, now := in.st.active[0], in.Now()
	for i := 0; i < 2; i++ {
		ir, k, err := r.measure(now)
		if err := in.st.applyProbe(r, ir, k, err, now); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := r.measure(now); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("evJob.measure allocates %.1f times per probe, want 0", allocs)
	}
}
