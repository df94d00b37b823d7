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
	opCount
)

// apply runs the command on in and returns its error. workloads are the
// characterized configs; an index past them submits an uncharacterized
// workload, and a node count of 0 or above the pool an invalid submission,
// so admission refusals are part of the sequence too.
func (c instanceCommand) apply(in *Instance, workloads []kernel.Config) error {
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
		_, err := in.Inject(at, Submission{
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
	default:
		return in.Step(context.Background(), now+time.Duration(1+a%24)*30*time.Second)
	}
}

// FuzzInstanceCommands drives random Inject/Pause/Resume/ScheduleBudget/
// SetPolicy/Step sequences against twin scale-mode instances of a 24-node
// pool — one at Parallelism 1 (every phase inline), one at 2 — under the
// pipeline fault plan (crash and repair, a slow window, MSR write and read
// faults, a telemetry dropout), with checkpointing on and the preempt
// emergency response. Each pair of input bytes is one command. After every
// command both twins returned the same error, their Snapshots are
// byte-identical as JSON, and jobs are conserved: every submission that
// entered the queue is completed, running, queued or killed (rejections
// never enter it, and preempted or crash-requeued jobs are back in the
// queue). Under the preempt response the committed power never exceeds
// the budget in force. At the end, the twins' closed Results are
// byte-identical.
func FuzzInstanceCommands(f *testing.F) {
	src, db, workloads := facilityEnv(f, 24)
	f.Add([]byte{opStep, 20, opInject, 0, opStep, 23, opScheduleBudget, 2, opStep, 23})
	f.Add([]byte{opPause, 0, opStep, 5, opInject, 16, opSetPolicy, 1, opResume, 0, opStep, 40})
	f.Add([]byte{opInject, 33, opInject, 1, opScheduleBudget, 0, opStep, 3, opScheduleBudget, 15, opStep, 23})

	f.Fuzz(func(t *testing.T, data []byte) {
		newTwin := func(parallelism int) *Instance {
			cfg := baseConfig(cluster.ClonePool(src), db, workloads)
			cfg.JobSizes = []int{2, 4, 8}
			cfg.ScaleMode = ScaleOn
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
		twins := [2]*Instance{newTwin(1), newTwin(2)}
		for i := 0; i+1 < len(data) && i < 2*fuzzCommands; i += 2 {
			cmd := instanceCommand{op: data[i], arg: data[i+1]}
			var errs [2]string
			for k, in := range twins {
				errs[k] = fmt.Sprint(cmd.apply(in, workloads))
			}
			if errs[0] != errs[1] {
				t.Fatalf("command %d %+v: errors diverged: %s vs %s", i/2, cmd, errs[0], errs[1])
			}
			sn := twins[0].Snapshot()
			a, b := snapshotJSON(t, sn), snapshotJSON(t, twins[1].Snapshot())
			if a != b {
				t.Fatalf("command %d %+v: snapshots diverged\np1: %s\np2: %s", i/2, cmd, a, b)
			}
			if accounted := sn.Completed + len(sn.Running) + sn.QueuedJobs + sn.Killed; sn.Submitted != accounted {
				t.Fatalf("command %d %+v: %d submitted, but completed %d + running %d + queued %d + killed %d = %d",
					i/2, cmd, sn.Submitted, sn.Completed, len(sn.Running), sn.QueuedJobs, sn.Killed, accounted)
			}
			if sn.CommittedPower > sn.Budget {
				t.Fatalf("command %d %+v: committed %v over budget %v", i/2, cmd, sn.CommittedPower, sn.Budget)
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
			t.Fatalf("closed results diverged\np1: %s\np2: %s", res[0], res[1])
		}
	})
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
