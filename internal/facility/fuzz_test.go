package facility

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"powerstack/internal/cluster"
	"powerstack/internal/kernel"
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
const (
	opInject = iota
	opPause
	opResume
	opScheduleBudget
	opSetPolicy
	opStep
	opSetTenantQuota
	opCount
)

// fuzzQuotas are the tenant quotas opSetTenantQuota installs; 0 removes
// the tenant's partition, and 600 W holds one characterized 2-node job
// but not two.
var fuzzQuotas = []units.Power{0, 600 * units.Watt, 1500 * units.Watt, 4000 * units.Watt}

// apply runs the command on in and returns its error. workloads are the
// characterized configs; an index past them submits an uncharacterized
// workload, and a node count of 0 or above the pool an invalid submission,
// so admission refusals are part of the sequence too. A chunked Step
// advances in two calls, to the midpoint and then to the target, and
// returns the first error.
func (c instanceCommand) apply(in *Instance, workloads []kernel.Config, chunked bool) error {
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
	default:
		until := now + time.Duration(1+a%24)*30*time.Second
		if chunked {
			if err := in.Step(context.Background(), now+(until-now)/2); err != nil {
				return err
			}
		}
		return in.Step(context.Background(), until)
	}
}

// FuzzInstanceCommands drives random Inject/Pause/Resume/ScheduleBudget/
// SetPolicy/Step/SetTenantQuota sequences against twin instances of a
// 24-node pool — one at Parallelism 1 (every phase inline) stepping in one
// call, one at 2 splitting every Step at its midpoint — at both policy
// scopes: ScaleAuto (flat at 24 nodes) and ScaleOn (rack/room), and under
// each emergency response (preempt, kill, throttle). The twins run under
// the pipeline fault plan (crash and repair, a slow window, MSR write and
// read faults, a telemetry dropout), with checkpointing on. Each pair of
// input bytes is one command; some injections name their job with an ID of
// the arrival or the injection form. After every command both twins returned the
// same error, their Snapshots are byte-identical as JSON, and both pass
// checkInvariants, each against its own previous energy-counter reading.
// At the end, the twins' closed Results are byte-identical.
func FuzzInstanceCommands(f *testing.F) {
	src, db, workloads := facilityEnv(f, 24)
	f.Add([]byte{opStep, 20, opInject, 0, opStep, 23, opScheduleBudget, 2, opStep, 23})
	f.Add([]byte{opPause, 0, opStep, 5, opInject, 16, opSetPolicy, 1, opResume, 0, opStep, 40})
	f.Add([]byte{opInject, 33, opInject, 1, opScheduleBudget, 0, opStep, 3, opScheduleBudget, 15, opStep, 23})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mode := range []string{ScaleAuto, ScaleOn} {
			for _, resp := range []EmergencyPolicy{EmergencyPreempt, EmergencyKill, EmergencyThrottle} {
				fuzzTwins(t, mode, resp, data, func() Config {
					cfg := baseConfig(cluster.ClonePool(src), db, workloads)
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

// fuzzTwins runs one FuzzInstanceCommands input against twin instances at
// one scale mode and emergency response and checks the invariants after
// every command.
func fuzzTwins(t *testing.T, mode string, resp EmergencyPolicy, data []byte, base func() Config, workloads []kernel.Config) {
	t.Helper()
	twins := [2]*Instance{fuzzInstance(t, mode, resp, 1, base), fuzzInstance(t, mode, resp, 2, base)}
	var counters [2]counterSample
	for i := 0; i+1 < len(data) && i < 2*fuzzCommands; i += 2 {
		cmd := instanceCommand{op: data[i], arg: data[i+1]}
		var errs [2]string
		for k, in := range twins {
			errs[k] = fmt.Sprint(cmd.apply(in, workloads, k == 1))
		}
		if errs[0] != errs[1] {
			t.Fatalf("scale %q %s command %d %+v: errors diverged: %s vs %s", mode, resp, i/2, cmd, errs[0], errs[1])
		}
		a, b := snapshotJSON(t, twins[0].Snapshot()), snapshotJSON(t, twins[1].Snapshot())
		if a != b {
			t.Fatalf("scale %q %s command %d %+v: snapshots diverged\np1: %s\np2: %s", mode, resp, i/2, cmd, a, b)
		}
		for k, in := range twins {
			if err := checkInvariants(in, &counters[k]); err != nil {
				t.Fatalf("scale %q %s command %d %+v: %v", mode, resp, i/2, cmd, err)
			}
		}
	}
	var res [2]string
	for k, in := range twins {
		r, err := in.Close()
		if err != nil {
			t.Fatal(err)
		}
		res[k] = resultJSON(t, r)
	}
	if res[0] != res[1] {
		t.Fatalf("scale %q %s: closed results diverged\np1: %s\np2: %s", mode, resp, res[0], res[1])
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
