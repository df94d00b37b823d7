package bsp

// Checkpoint/restart semantics for preemptible jobs. The facility's
// demand-response path ("Application Checkpoint and Power Study", PAPERS.md)
// prefers preempting a job at its last checkpoint boundary over killing it:
// the work since the checkpoint is lost, everything before it survives the
// preemption and the job resumes where its saved state left off.
//
// The model is deliberately simple — a checkpoint is an iteration boundary,
// taken every K iterations, with no I/O cost (the studies above put the
// checkpoint write at seconds against iteration times of the same order, and
// the facility's accounting is iteration-granular anyway). What matters for
// the policy comparison is the asymmetry it creates: preemption loses at
// most K-1 iterations where a kill loses all of them.

// Checkpoint is a job's restartable progress marker: the last iteration
// boundary at which its state was durably saved.
type Checkpoint struct {
	// Iterations is the completed-iteration count the checkpoint captures.
	Iterations int
}

// CheckpointFloor returns the last checkpoint boundary at or below done
// iterations for a cadence of every iterations: the progress a job
// preempted after done iterations restarts from. A non-positive cadence
// means no checkpointing — everything is lost.
func CheckpointFloor(done, every int) int {
	if every <= 0 || done <= 0 {
		return 0
	}
	return done - done%every
}

// Restore fast-forwards a freshly built job instance to a checkpoint: the
// iteration counter — and with it the position in any phase schedule —
// resumes where the checkpointed instance stopped, so a multi-phase job
// preempted in its second phase restarts in its second phase, not its
// first. Restore must be called before the first iteration; a non-positive
// checkpoint is a no-op.
func (j *Job) Restore(c Checkpoint) {
	if c.Iterations <= 0 {
		return
	}
	j.iterCount = c.Iterations
	if len(j.schedule) > 0 {
		if _, seg := j.segmentAt(j.iterCount); seg.Config != j.Config {
			j.setConfig(seg.Config)
		}
	}
}
