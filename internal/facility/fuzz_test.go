package facility

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"powerstack/internal/cluster"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/policy"
	"powerstack/internal/units"
)

// fuzzCommands caps one input's command count, so every input runs in
// milliseconds.
const fuzzCommands = 32

// instanceCommand is one decoded fuzz command: an Instance method and the
// argument byte that parameterizes it.
type instanceCommand struct {
	op, arg byte
}

// The commands FuzzInstanceCommands decodes, by op byte modulo opCount.
// Every command before opFork acts on one instance (apply); opFork forks
// the instance under test (fuzzTwins).
const (
	opInject = iota
	opPause
	opResume
	opScheduleBudget
	opSetPolicy
	opStep
	opSetTenantQuota
	opFork
	opCount
)

// fuzzChunk is the longest step the chunked twin takes at once: short
// enough that checkInvariants judges every energy counter after each one
// (counterSample.check skips steps over about 3.5 simulated minutes).
const fuzzChunk = 3 * time.Minute

// fuzzQuotas are the tenant quotas opSetTenantQuota installs; 0 removes
// the tenant's partition, and 600 W holds one characterized 2-node job
// but not two.
var fuzzQuotas = []units.Power{0, 600 * units.Watt, 1500 * units.Watt, 4000 * units.Watt}

// apply runs the command on in and returns its error. workloads are the
// characterized configs; an index past them submits an uncharacterized
// workload, and a node count of 0 or above the pool an invalid submission,
// so admission refusals are part of the sequence too. With afterChunk set,
// a Step advances in chunks of at most fuzzChunk, calling afterChunk after
// each, and returns the first error.
func (c instanceCommand) apply(in *Instance, workloads []kernel.Config, afterChunk func()) error {
	now := in.Now()
	a := int(c.arg)
	switch c.op % opCount {
	case opInject:
		var at time.Duration // 0: enqueue now
		if a%4 != 0 {
			at = now + time.Duration(a%4)*time.Minute
		}
		wl := kernel.Config{Intensity: 3, Vector: kernel.XMM, Imbalance: 1}
		if w := a / 4 % 4; w < len(workloads) {
			wl = workloads[w]
		}
		// Above 95 the ID is explicit and takes a generated form, arrival
		// or injection, so the generators must step around it.
		var id string
		if form := a / 96; form > 0 {
			id = fmt.Sprintf("%s%05d", []string{"job", "ext"}[form-1], 1+a%5)
		}
		_, err := in.Inject(at, Submission{
			ID:         id,
			Tenant:     []string{"", "acme"}[a%2],
			Workload:   wl,
			Nodes:      []int{2, 4, 8, 0, 30, 16}[a/16%6],
			Iterations: 40 + 97*a,
		})
		return err
	case opPause:
		return in.Pause()
	case opResume:
		return in.Resume()
	case opScheduleBudget:
		at := now + time.Duration(a%3)*time.Minute
		// 20%..170% of the configured budget: the low steps shed.
		b := in.st.cfg.SystemBudget * units.Power(2+a%16) / 10
		return in.ScheduleBudget(at, b)
	case opSetPolicy:
		pols := policy.All()
		return in.SetPolicy(pols[a%len(pols)])
	case opSetTenantQuota:
		// The empty tenant has no partition to set: that refusal is part
		// of the sequence too.
		return in.SetTenantQuota([]string{"", "acme"}[a%2], fuzzQuotas[a/2%len(fuzzQuotas)])
	case opStep:
		until := now + time.Duration(1+a%24)*30*time.Second
		if afterChunk == nil {
			return in.Step(context.Background(), until)
		}
		for t := now; t < until; {
			t = min(t+fuzzChunk, until)
			if err := in.Step(context.Background(), t); err != nil {
				return err
			}
			afterChunk()
		}
		return nil
	}
	panic(fmt.Sprintf("fuzz: command %d acts on no single instance", c.op%opCount))
}

// FuzzInstanceCommands drives random Inject/Pause/Resume/ScheduleBudget/
// SetPolicy/Step/SetTenantQuota/Fork sequences against twin instances of a
// 24-node pool — one at Parallelism 1 (every phase inline) stepping in one
// call, one at 2 stepping in chunks of at most fuzzChunk — at both policy
// scopes: ScaleAuto (flat at 24 nodes) and ScaleOn (rack/room), and under
// each emergency response (preempt, kill, throttle). The twins run under
// the pipeline fault plan (crash and repair, a slow window, MSR write and
// read faults, a telemetry dropout), with checkpointing on. Each pair of
// input bytes is one command; some injections name their job with an ID of
// the arrival or the injection form. The first Fork forks the first twin
// onto a spare pool, and every later command runs on the fork too. After
// every command all instances returned the same error, their Snapshots are
// byte-identical as JSON, and all pass checkInvariants, each against its
// own previous energy-counter reading; the chunked twin is checked after
// every chunk as well. At the end, the closed Results are byte-identical.
func FuzzInstanceCommands(f *testing.F) {
	src, db, workloads := facilityEnv(f, 24)
	f.Add([]byte{opStep, 20, opInject, 0, opStep, 23, opScheduleBudget, 2, opStep, 23})
	f.Add([]byte{opPause, 0, opStep, 5, opInject, 16, opSetPolicy, 1, opResume, 0, opStep, 40})
	f.Add([]byte{opInject, 33, opInject, 1, opScheduleBudget, 0, opStep, 3, opScheduleBudget, 15, opStep, 23})
	f.Add([]byte{opStep, 20, opInject, 200, opFork, 0, opScheduleBudget, 2, opStep, 23, opInject, 101, opStep, 47})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mode := range []string{ScaleAuto, ScaleOn} {
			for _, resp := range []EmergencyPolicy{EmergencyPreempt, EmergencyKill, EmergencyThrottle} {
				fuzzTwins(t, mode, resp, data, src, func(nodes []*node.Node) Config {
					cfg := baseConfig(nodes, db, workloads)
					cfg.JobSizes = []int{2, 4, 8}
					return cfg
				}, workloads)
			}
		}
	})
}

// fuzzInstance builds and starts one instance of base's world at a scale
// mode, emergency response and parallelism, under the pipeline fault plan
// with checkpointing on.
func fuzzInstance(t *testing.T, mode string, resp EmergencyPolicy, parallelism int, base func() Config) *Instance {
	t.Helper()
	cfg := base()
	cfg.ScaleMode = mode
	cfg.Emergency = resp
	cfg.Faults = pipelineFaults()
	cfg.CheckpointEvery = 50
	cfg.Parallelism = parallelism
	in, err := NewInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Start(); err != nil {
		t.Fatal(err)
	}
	return in
}

// fuzzTwins runs one FuzzInstanceCommands input against twin instances
// over copies of src at one scale mode and emergency response, plus the
// fork of the first twin once the input forks, and checks the invariants
// after every command.
func fuzzTwins(t *testing.T, mode string, resp EmergencyPolicy, data []byte, src []*node.Node, base func([]*node.Node) Config, workloads []kernel.Config) {
	t.Helper()
	pool := cluster.NewPoolState(src)
	ins := []*Instance{
		fuzzInstance(t, mode, resp, 1, func() Config { return base(pool.Nodes()) }),
		fuzzInstance(t, mode, resp, 2, func() Config { return base(cluster.ClonePool(src)) }),
	}
	counters := make([]counterSample, 3)
	check := func(k int, i int, cmd instanceCommand) {
		if err := checkInvariants(ins[k], &counters[k]); err != nil {
			t.Fatalf("scale %q %s command %d %+v instance %d: %v", mode, resp, i/2, cmd, k, err)
		}
	}
	for i := 0; i+1 < len(data) && i < 2*fuzzCommands; i += 2 {
		cmd := instanceCommand{op: data[i], arg: data[i+1]}
		if cmd.op%opCount == opFork {
			if len(ins) == 2 {
				spare := cluster.NewPoolState(src)
				if err := spare.CopyFrom(pool); err != nil {
					t.Fatal(err)
				}
				fork, err := ins[0].Fork(spare.Nodes(), resp, obs.SpanContext{})
				if err != nil {
					t.Fatalf("scale %q %s command %d: fork: %v", mode, resp, i/2, err)
				}
				ins = append(ins, fork)
			}
		} else {
			errs := make([]string, len(ins))
			for k, in := range ins {
				var afterChunk func()
				if k == 1 {
					afterChunk = func() { check(1, i, cmd) }
				}
				errs[k] = fmt.Sprint(cmd.apply(in, workloads, afterChunk))
			}
			for k := range errs {
				if errs[k] != errs[0] {
					t.Fatalf("scale %q %s command %d %+v: errors diverged: %s vs %s (instance %d)", mode, resp, i/2, cmd, errs[0], errs[k], k)
				}
			}
		}
		want := snapshotJSON(t, ins[0].Snapshot())
		for k, in := range ins {
			if got := snapshotJSON(t, in.Snapshot()); got != want {
				t.Fatalf("scale %q %s command %d %+v: snapshots diverged\np1: %s\ninstance %d: %s", mode, resp, i/2, cmd, want, k, got)
			}
			check(k, i, cmd)
		}
	}
	res := make([]string, len(ins))
	for k, in := range ins {
		r, err := in.Close()
		if err != nil {
			t.Fatal(err)
		}
		res[k] = resultJSON(t, r)
		if res[k] != res[0] {
			t.Fatalf("scale %q %s: closed results diverged\np1: %s\ninstance %d: %s", mode, resp, res[0], k, res[k])
		}
	}
}

// snapshotJSON canonicalizes a Snapshot for byte comparison.
func snapshotJSON(t *testing.T, sn Snapshot) string {
	t.Helper()
	b, err := json.Marshal(sn)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
