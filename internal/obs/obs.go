// Package obs is the stack-wide observability layer: a concurrency-safe
// metrics registry with Prometheus text exposition, a bounded structured
// journal of typed decision events with Chrome trace_event export, and an
// optional net/http debug server.
//
// Every instrumented layer records through a *Sink whose methods are no-ops
// on a nil receiver, so the uninstrumented path costs one nil check and
// zero allocations — benchmarks without a sink are unaffected. The layers
// never name metrics themselves; the typed helpers below are the single
// source of the metric and event vocabulary, keeping names consistent
// across coordinator, geopm, rapl, telemetry, and sim.
//
// The package depends only on the standard library.
package obs

import (
	"io"
	"time"
)

// Metric families exported by the typed helpers. Labels are noted inline.
const (
	// MetricGrants counts resource-manager grants, labeled job.
	MetricGrants = "powerstack_grants_total"
	// MetricGrantWatts is the latest granted budget, labeled job.
	MetricGrantWatts = "powerstack_grant_watts"
	// MetricRegrants counts renegotiated budgets applied, labeled job.
	MetricRegrants = "powerstack_regrants_total"
	// MetricIterations counts BSP iterations, labeled layer and job.
	MetricIterations = "powerstack_iterations_total"
	// MetricIterationSeconds is the iteration-time histogram, labeled layer.
	MetricIterationSeconds = "powerstack_iteration_seconds"
	// MetricReallocs counts within-job limit redistributions, labeled job.
	MetricReallocs = "powerstack_balancer_reallocations_total"
	// MetricReallocWatts accumulates redistributed watts, labeled job.
	MetricReallocWatts = "powerstack_balancer_moved_watts_total"
	// MetricLimitWrites counts node-level power-limit writes (unlabeled:
	// host cardinality is unbounded; per-host detail lives in the journal).
	MetricLimitWrites = "powerstack_rapl_limit_writes_total"
	// MetricLimitWatts is the histogram of programmed node limits.
	MetricLimitWatts = "powerstack_rapl_limit_watts"
	// MetricMSRWrites counts raw MSR PL1 register writes (per socket).
	MetricMSRWrites = "powerstack_rapl_msr_writes_total"
	// MetricEnergyWraps counts 32-bit energy-counter wraparounds, labeled
	// domain (pkg or dram).
	MetricEnergyWraps = "powerstack_rapl_energy_wraps_total"
	// MetricPowerWatts is the latest sampled power, labeled domain.
	MetricPowerWatts = "powerstack_power_watts"
	// MetricViolations counts watchdog budget violations, labeled domain.
	MetricViolations = "powerstack_watchdog_violations_total"
	// MetricClamps counts watchdog limit clamps.
	MetricClamps = "powerstack_watchdog_clamps_total"
	// MetricCells counts sim evaluation cells completed, labeled policy.
	MetricCells = "powerstack_sim_cells_total"
	// MetricCellSeconds is the wall-time histogram of sim cells.
	MetricCellSeconds = "powerstack_sim_cell_seconds"
	// MetricJobRuns counts the (cell, job) runs of sim grids, labeled
	// outcome: JobRunExecuted or JobRunShared.
	MetricJobRuns = "powerstack_sim_job_runs_total"
	// MetricFaults counts fault-plan injections armed or fired, labeled
	// kind.
	MetricFaults = "powerstack_faults_injected_total"
	// MetricQuarantines counts nodes moved to the drain set.
	MetricQuarantines = "powerstack_nodes_quarantined_total"
	// MetricRejoins counts repaired nodes returning to service.
	MetricRejoins = "powerstack_nodes_rejoined_total"
	// MetricFallbacks counts StaticCaps fallbacks for uncharacterized jobs.
	MetricFallbacks = "powerstack_policy_fallbacks_total"
	// MetricHierFallbacks is emitted by nothing: hierarchical allocations
	// have no flat fallback. perfbench's per-layer table still names it,
	// so it reads zero.
	MetricHierFallbacks = "powerstack_coordinator_hier_fallbacks_total"
	// MetricCapRetries counts retried power-limit writes.
	MetricCapRetries = "powerstack_cap_write_retries_total"
	// MetricRequestHolds counts coordinator grant holds for missing
	// Requests.
	MetricRequestHolds = "powerstack_request_holds_total"
	// MetricTelemetryHolds counts telemetry samples held through dropouts.
	MetricTelemetryHolds = "powerstack_telemetry_holds_total"
	// MetricRequeues counts jobs requeued after losing a node.
	MetricRequeues = "powerstack_jobs_requeued_total"
	// MetricEngineEvents counts discrete-event engine dispatches, labeled
	// kind (arrival, completion, fault, sample, replan, ...).
	MetricEngineEvents = "powerstack_engine_events_total"
	// MetricCampaignScenarios counts campaign scenarios completed, labeled
	// policy.
	MetricCampaignScenarios = "powerstack_campaign_scenarios_total"
	// MetricCharzCacheHits counts characterization-cache lookups served
	// from a stored entry.
	MetricCharzCacheHits = "powerstack_charz_cache_hits_total"
	// MetricCharzCacheMisses counts characterization-cache lookups that
	// had to run the two-pass characterization.
	MetricCharzCacheMisses = "powerstack_charz_cache_misses_total"
	// MetricReplanSeconds is the wall-latency histogram of facility replan
	// rounds (plan + apply).
	MetricReplanSeconds = "powerstack_replan_seconds"
	// MetricGrantSizeWatts is the histogram of grant sizes, labeled job.
	MetricGrantSizeWatts = "powerstack_grant_size_watts"
	// MetricJobWaitSeconds is the histogram of job queue waits in virtual
	// seconds (submission to dispatch on the simulated timeline).
	MetricJobWaitSeconds = "powerstack_job_wait_seconds"
	// MetricJobTurnaround is the histogram of job turnaround in virtual
	// seconds (submission to completion).
	MetricJobTurnaround = "powerstack_job_turnaround_seconds"
	// MetricCapRetryCount is the histogram of retries needed per cap write.
	MetricCapRetryCount = "powerstack_cap_write_retry_count"
	// MetricCacheLookupTime is the wall-latency histogram of
	// characterization-cache lookups, labeled result (hit or miss).
	MetricCacheLookupTime = "powerstack_charz_cache_lookup_seconds"
	// MetricStreamClients gauges the live SSE subscribers.
	MetricStreamClients = "powerstack_stream_clients"
	// MetricStreamDropped counts streaming clients dropped for falling
	// behind their bounded buffer.
	MetricStreamDropped = "powerstack_stream_clients_dropped_total"
	// MetricSpans counts completed tracing spans, labeled name.
	MetricSpans = "powerstack_spans_total"
	// MetricBudgetChanges counts facility budget-timeline changes applied,
	// labeled cause (step, drop, recover).
	MetricBudgetChanges = "powerstack_budget_changes_total"
	// MetricPreemptions counts jobs preempted at a checkpoint during
	// budget emergencies.
	MetricPreemptions = "powerstack_jobs_preempted_total"
	// MetricJobKills counts jobs killed outright during budget
	// emergencies.
	MetricJobKills = "powerstack_jobs_killed_total"
	// MetricResumes counts preempted jobs restarting from a checkpoint.
	MetricResumes = "powerstack_jobs_resumed_total"
	// MetricInfeasibleRejects counts submissions refused because their
	// demand exceeded the current system budget.
	MetricInfeasibleRejects = "powerstack_jobs_rejected_infeasible_total"
)

// Sink bundles the metrics registry, the event journal, the span log, and
// the live-stream broadcaster. The zero value of *Sink (nil) is a valid,
// free-to-call sink that records nothing.
type Sink struct {
	Metrics *Registry
	Journal *Journal
	Spans   *SpanLog
	Stream  *Broadcaster

	// vnow, when set, reads the owning engine's virtual clock so every
	// event and span carries its simulated timestamp alongside wall time.
	// It is per-derived-sink (WithVClock), never shared mutable state, so
	// campaign workers recording through one base sink stay race-free.
	vnow func() time.Duration
}

// New returns a sink with a fresh registry, default-capacity journal, span
// log, and stream broadcaster.
func New() *Sink { return NewWithCapacity(0) }

// NewWithCapacity returns a sink whose journal holds at most journalCap
// events (non-positive selects DefaultJournalCapacity).
func NewWithCapacity(journalCap int) *Sink {
	j := NewJournal(journalCap)
	return &Sink{
		Metrics: NewRegistry(),
		Journal: j,
		Spans:   NewSpanLog(0, j.start),
		Stream:  NewBroadcaster(),
	}
}

// WithVClock returns a sink that shares s's registry, journal, spans, and
// stream but stamps events and spans with the given virtual clock. The
// engine advances its clock before dispatching handlers, so passing
// engine.Scheduler.Now yields the correct virtual time for everything
// recorded inside handlers. A nil sink derives a nil sink.
func (s *Sink) WithVClock(now func() time.Duration) *Sink {
	if s == nil {
		return nil
	}
	d := *s
	d.vnow = now
	return &d
}

// Enabled reports whether the sink records anything.
func (s *Sink) Enabled() bool { return s != nil }

// record is the single write path for journal events: it stamps the
// virtual timestamp when a virtual clock is attached, commits the event to
// the journal, and republishes the stamped record to live stream
// subscribers. Callers hold no locks.
func (s *Sink) record(e Event) {
	if s.vnow != nil {
		e.VTime = s.vnow()
	}
	e = s.Journal.recordStamped(e)
	s.Stream.publish(e)
}

// Record appends a raw event to the journal (and the live stream).
func (s *Sink) Record(e Event) {
	if s == nil {
		return
	}
	s.record(e)
}

// WritePrometheus renders the metrics snapshot.
func (s *Sink) WritePrometheus(w io.Writer) error {
	if s == nil || s.Metrics == nil {
		return nil
	}
	return s.Metrics.WritePrometheus(w)
}

// WriteTrace renders the journal and the span log as one Chrome trace JSON
// document: journal events as instants and counters on pid 1, spans as
// nested complete slices on pid 2.
func (s *Sink) WriteTrace(w io.Writer) error {
	if s == nil || (s.Journal == nil && s.Spans == nil) {
		_, err := w.Write([]byte(`{"traceEvents":[]}` + "\n"))
		return err
	}
	var all []traceEvent
	if s.Journal != nil {
		meta, out := journalTraceEvents(s.Journal.Snapshot())
		all = append(append(all, meta...), out...)
	}
	if s.Spans != nil {
		if spans := s.Spans.Snapshot(); len(spans) > 0 {
			meta, out := spanTraceEvents(spans)
			all = append(append(all, meta...), out...)
		}
	}
	return writeTraceDoc(w, all)
}

// WriteSpans renders the completed spans as JSON Lines.
func (s *Sink) WriteSpans(w io.Writer) error {
	if s == nil || s.Spans == nil {
		return nil
	}
	return s.Spans.WriteJSONL(w)
}

// Grant records a resource-manager grant of watts to a job at a protocol
// round.
func (s *Sink) Grant(job string, round int, watts float64) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricGrants, "job", job).Inc()
	s.Metrics.Gauge(MetricGrantWatts, "job", job).Set(watts)
	s.Metrics.Histogram(MetricGrantSizeWatts, GrantWattsBuckets).Observe(watts)
	s.record(Event{Type: EvGrant, Layer: "coordinator", Scope: job, Iter: round, Value: watts})
}

// Regrant records a job runtime accepting a renegotiated budget.
func (s *Sink) Regrant(job string, round int, watts float64) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricRegrants, "job", job).Inc()
	s.record(Event{Type: EvRegrant, Layer: "coordinator", Scope: job, Iter: round, Value: watts})
}

// Epoch records one bulk-synchronous iteration of a job completing its
// barrier in the given layer ("coordinator" or "geopm").
func (s *Sink) Epoch(layer, job string, iter int, seconds float64) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricIterations, "layer", layer, "job", job).Inc()
	s.Metrics.Histogram(MetricIterationSeconds, SecondsBuckets, "layer", layer).Observe(seconds)
	s.record(Event{Type: EvEpoch, Layer: layer, Scope: job, Iter: iter, Value: seconds})
}

// Realloc records an agent redistributing movedWatts of per-host limits
// within a job.
func (s *Sink) Realloc(job string, iter int, movedWatts float64) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricReallocs, "job", job).Inc()
	s.Metrics.Counter(MetricReallocWatts, "job", job).Add(movedWatts)
	s.record(Event{Type: EvRealloc, Layer: "geopm", Scope: job, Iter: iter, Value: movedWatts})
}

// LimitWrite records a node-level power-limit write of watts.
func (s *Sink) LimitWrite(host string, watts float64) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricLimitWrites).Inc()
	s.Metrics.Histogram(MetricLimitWatts, WattsBuckets).Observe(watts)
	s.record(Event{Type: EvLimitWrite, Layer: "node", Host: host, Value: watts})
}

// MSRWrite counts one raw PL1 register write on a socket device.
func (s *Sink) MSRWrite() {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricMSRWrites).Inc()
}

// EnergyWrap records a 32-bit energy-counter wraparound in a RAPL domain
// ("pkg" or "dram") of a host.
func (s *Sink) EnergyWrap(domain, host string) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricEnergyWraps, "domain", domain).Inc()
	s.record(Event{Type: EvEnergyWrap, Layer: "rapl", Scope: domain, Host: host})
}

// PowerSample records the latest sampled power of a telemetry domain.
func (s *Sink) PowerSample(domain string, watts float64) {
	if s == nil {
		return
	}
	s.Metrics.Gauge(MetricPowerWatts, "domain", domain).Set(watts)
}

// Violation records a watchdog budget violation: observed watts against the
// enforced budget.
func (s *Sink) Violation(domain string, observedWatts, budgetWatts float64) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricViolations, "domain", domain).Inc()
	s.record(Event{Type: EvViolation, Layer: "telemetry", Scope: domain, Value: observedWatts, Aux: budgetWatts})
}

// Clamp records the watchdog cutting a leaf's limit from fromWatts to
// toWatts.
func (s *Sink) Clamp(host string, fromWatts, toWatts float64) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricClamps).Inc()
	s.record(Event{Type: EvClamp, Layer: "telemetry", Host: host, Value: toWatts, Aux: fromWatts})
}

// FaultInjected records one fault-plan injection arming or firing: kind is
// the injection kind, host the target node (empty for job-scoped faults),
// scope the job/config target when host-less.
func (s *Sink) FaultInjected(kind, host, scope string, value float64) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricFaults, "kind", kind).Inc()
	s.record(Event{Type: EvFaultInjected, Layer: "fault", Scope: scope + kindSep + kind, Host: host, Value: value})
}

// kindSep joins the fault scope and kind inside one Scope field so the
// journal stays flat ("job3|msr_write_fault").
const kindSep = "|"

// PolicyFallback records the resource manager substituting a StaticCaps-style
// uniform split for a job whose characterization entry is missing or corrupt.
func (s *Sink) PolicyFallback(job, reason string) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricFallbacks, "reason", reason).Inc()
	s.record(Event{Type: EvPolicyFallback, Layer: "rm", Scope: job + kindSep + reason})
}

// Quarantine records a node moving to the drain set for the given reason
// ("cap_write", "release", "crash", "read_fault").
func (s *Sink) Quarantine(host, reason string) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricQuarantines, "reason", reason).Inc()
	s.record(Event{Type: EvNodeQuarantined, Layer: "rm", Scope: reason, Host: host})
}

// Rejoin records a repaired node returning to the free pool.
func (s *Sink) Rejoin(host string) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricRejoins).Inc()
	s.record(Event{Type: EvNodeRejoined, Layer: "rm", Host: host})
}

// CapRetry records one retry of a failed power-limit write: the watts being
// programmed and the attempt number (1-based).
func (s *Sink) CapRetry(host string, watts float64, attempt int) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricCapRetries).Inc()
	s.record(Event{Type: EvCapRetry, Layer: "rm", Host: host, Iter: attempt, Value: watts})
}

// RequestHold records the coordinator holding a job's previous grant through
// a missing Request. misses is the consecutive-miss count; redistributed is
// true once the hold horizon is exceeded and the job's budget is released
// back to the pool.
func (s *Sink) RequestHold(job string, round int, watts float64, misses int, redistributed bool) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricRequestHolds, "job", job).Inc()
	aux := float64(misses)
	if redistributed {
		aux = -aux
	}
	s.record(Event{Type: EvRequestHold, Layer: "coordinator", Scope: job, Iter: round, Value: watts, Aux: aux})
}

// TelemetryHold records a telemetry leaf holding its last known power
// through a sample dropout or read failure.
func (s *Sink) TelemetryHold(host string, heldWatts float64) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricTelemetryHolds).Inc()
	s.record(Event{Type: EvTelemetryHold, Layer: "telemetry", Host: host, Value: heldWatts})
}

// JobRequeued records the facility returning a job to the scheduler queue
// after a node loss, with the iterations it still has to run.
func (s *Sink) JobRequeued(job string, remaining int) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricRequeues).Inc()
	s.record(Event{Type: EvJobRequeued, Layer: "facility", Scope: job, Value: float64(remaining)})
}

// BudgetChange records a facility budget-timeline change taking effect,
// with the watts before and after and the cause ("step" for a scheduled
// timeline step, "drop" for a fault-plan emergency, "recover" for a drop
// window closing).
func (s *Sink) BudgetChange(cause string, fromWatts, toWatts float64) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricBudgetChanges, "cause", cause).Inc()
	s.record(Event{Type: EvBudgetChange, Layer: "facility", Scope: cause, Value: toWatts, Aux: fromWatts})
}

// JobPreempted records a running job preempted at its last checkpoint
// during a budget emergency, with the checkpointed iteration it will resume
// from and the iterations of work lost since that checkpoint.
func (s *Sink) JobPreempted(job string, checkpoint, lost int) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricPreemptions).Inc()
	s.record(Event{Type: EvJobPreempted, Layer: "facility", Scope: job, Value: float64(checkpoint), Aux: float64(lost)})
}

// JobResumed records a preempted (or crash-requeued) job restarting from
// its checkpoint.
func (s *Sink) JobResumed(job string, checkpoint int) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricResumes).Inc()
	s.record(Event{Type: EvJobResumed, Layer: "facility", Scope: job, Value: float64(checkpoint)})
}

// JobKilled records a running job killed outright during a budget
// emergency, with the completed iterations its death discards.
func (s *Sink) JobKilled(job string, done int) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricJobKills).Inc()
	s.record(Event{Type: EvJobKilled, Layer: "facility", Scope: job, Value: float64(done)})
}

// JobRejected records a submission refused at enqueue because its power
// demand exceeds the current system budget — the ErrBudgetInfeasible
// degradation path.
func (s *Sink) JobRejected(job string, demandWatts, budgetWatts float64) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricInfeasibleRejects).Inc()
	s.record(Event{Type: EvJobRejected, Layer: "facility", Scope: job, Value: demandWatts, Aux: budgetWatts})
}

// EngineDispatch records the discrete-event engine dispatching one event of
// the given kind at virtual time at. The journal Iter field is unused: the
// virtual time goes in Value (seconds) so event streams plot on the
// simulated timeline rather than the wall clock.
func (s *Sink) EngineDispatch(kind string, at time.Duration) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricEngineEvents, "kind", kind).Inc()
	s.record(Event{Type: EvEngineDispatch, Layer: "engine", Scope: kind, Value: at.Seconds()})
}

// CampaignShardStart marks a campaign worker picking up scenario in the
// matrix order.
func (s *Sink) CampaignShardStart(policy string, scenario, worker int) {
	if s == nil {
		return
	}
	s.record(Event{Type: EvCampaignShard, Layer: "campaign", Scope: policy, Iter: scenario, Aux: float64(worker)})
}

// CampaignShardDone marks a campaign worker finishing a scenario after
// seconds of wall time.
func (s *Sink) CampaignShardDone(policy string, scenario, worker int, seconds float64) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricCampaignScenarios, "policy", policy).Inc()
	s.record(Event{Type: EvCampaignShard, Layer: "campaign", Scope: policy, Iter: scenario, Value: seconds, Aux: float64(worker)})
}

// CacheLookup records a characterization-cache lookup outcome for the
// given key: whether it hit a stored entry and how long the lookup took
// in wall seconds (zero when the caller did not time it).
func (s *Sink) CacheLookup(key string, hit bool, seconds float64) {
	if s == nil {
		return
	}
	v := 0.0
	metric := MetricCharzCacheMisses
	result := "miss"
	if hit {
		v = 1
		metric = MetricCharzCacheHits
		result = "hit"
	}
	s.Metrics.Counter(metric).Inc()
	s.Metrics.Histogram(MetricCacheLookupTime, LatencySecondsBuckets, "result", result).Observe(seconds)
	s.record(Event{Type: EvCacheLookup, Layer: "charz", Scope: key, Value: v, Aux: seconds})
}

// ReplanLatency records one facility replan round: the number of running
// jobs it covered and the wall seconds plan+apply took.
func (s *Sink) ReplanLatency(jobs int, seconds float64) {
	if s == nil {
		return
	}
	s.Metrics.Histogram(MetricReplanSeconds, LatencySecondsBuckets).Observe(seconds)
	s.record(Event{Type: EvReplan, Layer: "facility", Iter: jobs, Value: seconds})
}

// JobFinished records a job completing: its queue wait and turnaround in
// virtual seconds on the simulated timeline.
func (s *Sink) JobFinished(job string, waitSeconds, turnaroundSeconds float64) {
	if s == nil {
		return
	}
	s.Metrics.Histogram(MetricJobWaitSeconds, VirtualSecondsBuckets).Observe(waitSeconds)
	s.Metrics.Histogram(MetricJobTurnaround, VirtualSecondsBuckets).Observe(turnaroundSeconds)
	s.record(Event{Type: EvJobDone, Layer: "facility", Scope: job, Value: turnaroundSeconds, Aux: waitSeconds})
}

// CapWriteRetries records how many retries one node-level cap write needed
// before succeeding or giving up (0 = first write stuck).
func (s *Sink) CapWriteRetries(host string, retries int) {
	if s == nil {
		return
	}
	s.Metrics.Histogram(MetricCapRetryCount, RetryBuckets).Observe(float64(retries))
}

// CellStart marks a sim evaluation cell beginning.
func (s *Sink) CellStart(mix, policy, budget string) {
	if s == nil {
		return
	}
	s.record(Event{Type: EvCell, Layer: "sim", Scope: mix + "/" + budget + "/" + policy})
}

// Outcomes of a sim grid's job runs (MetricJobRuns).
const (
	// JobRunExecuted is a job run a cell executed.
	JobRunExecuted = "executed"
	// JobRunShared is a cell's job whose run, bit-identical for its
	// caps, another cell executed.
	JobRunShared = "shared"
)

// JobRuns counts n sim job runs with the given outcome.
func (s *Sink) JobRuns(outcome string, n int) {
	if s == nil || n == 0 {
		return
	}
	s.Metrics.Counter(MetricJobRuns, "outcome", outcome).Add(float64(n))
}

// CellDone marks a sim evaluation cell finishing after seconds of wall
// time.
func (s *Sink) CellDone(mix, policy, budget string, seconds float64) {
	if s == nil {
		return
	}
	s.Metrics.Counter(MetricCells, "policy", policy).Inc()
	s.Metrics.Histogram(MetricCellSeconds, SecondsBuckets).Observe(seconds)
	s.record(Event{Type: EvCell, Layer: "sim", Scope: mix + "/" + budget + "/" + policy, Value: seconds})
}
