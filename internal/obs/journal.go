package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// EventType names one kind of decision event recorded by the stack.
type EventType string

// The decision events instrumented across the stack.
const (
	// EvGrant is a resource-manager power grant to a job (coordinator
	// Allocate round or initial distribution).
	EvGrant EventType = "grant"
	// EvRegrant is a job runtime accepting a renegotiated budget.
	EvRegrant EventType = "regrant"
	// EvLimitWrite is a node-level RAPL power-limit write (PL1 programming
	// on both sockets).
	EvLimitWrite EventType = "rapl_limit_write"
	// EvEpoch is one bulk-synchronous iteration reaching its barrier.
	EvEpoch EventType = "epoch"
	// EvRealloc is a balancer/agent redistribution of per-host limits
	// within a job.
	EvRealloc EventType = "realloc"
	// EvEnergyWrap is a 32-bit RAPL energy-counter wraparound.
	EvEnergyWrap EventType = "energy_wrap"
	// EvCell marks sim evaluation-cell progress (start and finish).
	EvCell EventType = "cell"
	// EvFaultInjected is a fault-plan injection arming or firing (MSR
	// faults, crashes, slow nodes, dropouts, characterization corruption).
	EvFaultInjected EventType = "fault_injected"
	// EvPolicyFallback is the resource manager substituting a StaticCaps
	// uniform split for a job whose characterization is missing or corrupt.
	EvPolicyFallback EventType = "policy_fallback"
	// EvNodeQuarantined is a node moved to the drain set after repeated
	// control failures or a crash.
	EvNodeQuarantined EventType = "node_quarantined"
	// EvNodeRejoined is a repaired node returning to the free pool.
	EvNodeRejoined EventType = "node_rejoined"
	// EvCapRetry is a failed power-limit write being retried.
	EvCapRetry EventType = "cap_retry"
	// EvRequestHold is the coordinator holding a job's previous grant
	// because its Request went missing (and, past the hold horizon,
	// redistributing the job's budget).
	EvRequestHold EventType = "request_hold"
	// EvTelemetryHold is a telemetry leaf holding its last sample through a
	// dropout or read failure.
	EvTelemetryHold EventType = "telemetry_hold"
	// EvJobRequeued is the facility returning a crashed node's job to the
	// scheduler queue.
	EvJobRequeued EventType = "job_requeued"
	// EvEngineDispatch is the discrete-event engine dispatching one
	// scheduled event (Scope carries the event kind, Value the virtual time
	// in seconds).
	EvEngineDispatch EventType = "engine_dispatch"
	// EvCampaignShard is a campaign worker starting (Value 0) or finishing
	// (Value = wall seconds) one scenario of the matrix. Iter carries the
	// scenario index, Aux the worker index.
	EvCampaignShard EventType = "campaign_shard"
	// EvCacheLookup is a characterization-cache lookup (Scope carries the
	// cache key, Value 1 for a hit and 0 for a miss, Aux the wall seconds).
	EvCacheLookup EventType = "charz_cache"
	// EvReplan is one facility replan round completing (Iter carries the
	// running-job count, Value the wall seconds for plan+apply).
	EvReplan EventType = "replan"
	// EvJobDone is a job completing (Value carries the turnaround and Aux
	// the queue wait, both in virtual seconds).
	EvJobDone EventType = "job_done"
	// EvBudgetChange is a facility budget-timeline change taking effect
	// (Value carries the new budget in watts, Aux the previous one; Scope
	// names the cause: "step", "drop", or "recover").
	EvBudgetChange EventType = "budget_change"
	// EvJobPreempted is a running job preempted at its last checkpoint
	// during a budget emergency (Value carries the checkpointed iteration,
	// Aux the iterations of lost work).
	EvJobPreempted EventType = "job_preempted"
	// EvJobResumed is a previously preempted (or crash-requeued) job
	// restarting from its checkpoint (Value carries the checkpointed
	// iteration it resumes from).
	EvJobResumed EventType = "job_resumed"
	// EvJobKilled is a running job killed outright during a budget
	// emergency, all progress lost (Value carries the completed iterations
	// discarded).
	EvJobKilled EventType = "job_killed"
	// EvJobRejected is a submission refused at enqueue because its power
	// demand exceeds the current system budget — the ErrBudgetInfeasible
	// degradation path (Value carries the demand in watts, Aux the budget).
	EvJobRejected EventType = "job_rejected"
)

// Event is one structured decision record. Fields are flat and typed so
// recording does not allocate beyond the ring slot.
type Event struct {
	// Seq is the global sequence number (1-based, assigned by the journal).
	Seq uint64 `json:"seq"`
	// Time is the wall-clock offset from the journal's start.
	Time time.Duration `json:"ts_ns"`
	// VTime is the virtual timestamp on the owning engine's simulated
	// timeline, stamped when the recording sink carries a virtual clock
	// (Sink.WithVClock). Zero when the event was recorded outside any
	// simulation, so wall-clock-free consumers can fall back to Time.
	VTime time.Duration `json:"vt_ns,omitempty"`
	// Type is the decision kind.
	Type EventType `json:"type"`
	// Layer is the stack layer that recorded the event ("coordinator",
	// "geopm", "rapl", "telemetry", "sim", "node").
	Layer string `json:"layer,omitempty"`
	// Scope is the owning entity: a job ID, a telemetry domain, or a sim
	// cell name.
	Scope string `json:"scope,omitempty"`
	// Host is the node involved, when the event is host-scoped.
	Host string `json:"host,omitempty"`
	// Iter is the iteration / protocol round index, when meaningful.
	Iter int `json:"iter,omitempty"`
	// Value is the primary quantity: watts for power events, seconds for
	// epochs and cells, hertz for pins.
	Value float64 `json:"value,omitempty"`
	// Aux is a secondary quantity (the budget for violations, the previous
	// limit for clamps, moved watts for reallocations).
	Aux float64 `json:"aux,omitempty"`
}

// Journal is a bounded ring buffer of events. Recording is O(1), never
// allocates after construction, and evicts the oldest event when full, so a
// long run keeps the most recent window at fixed memory cost.
type Journal struct {
	mu    sync.Mutex
	start time.Time
	buf   []Event
	total uint64
}

// DefaultJournalCapacity bounds the journal when callers pass no capacity:
// 64k events is minutes of full-rate decision traffic at simulation speed.
const DefaultJournalCapacity = 1 << 16

// NewJournal creates a journal holding at most capacity events
// (non-positive capacity selects DefaultJournalCapacity).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{start: time.Now(), buf: make([]Event, 0, capacity)}
}

// recordStamped appends an event and returns the stamped copy (sequence
// number and wall offset filled in) so callers can republish the exact
// record to live streams. Nil journals return the event untouched.
func (j *Journal) recordStamped(e Event) Event {
	if j == nil {
		return e
	}
	j.mu.Lock()
	j.total++
	e.Seq = j.total
	e.Time = time.Since(j.start)
	if len(j.buf) < cap(j.buf) {
		j.buf = append(j.buf, e)
	} else {
		j.buf[(j.total-1)%uint64(cap(j.buf))] = e
	}
	j.mu.Unlock()
	return e
}

// Total returns how many events were ever recorded.
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// Dropped returns how many events were evicted by the ring bound.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total - uint64(len(j.buf))
}

// Snapshot returns the retained events oldest-first.
func (j *Journal) Snapshot() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, len(j.buf))
	if len(j.buf) < cap(j.buf) {
		copy(out, j.buf)
		return out
	}
	head := int(j.total % uint64(cap(j.buf)))
	n := copy(out, j.buf[head:])
	copy(out[n:], j.buf[:head])
	return out
}

// WriteJSON streams the retained events as a JSON array, oldest-first.
func (j *Journal) WriteJSON(w io.Writer) error {
	events := j.Snapshot()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, e := range events {
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// traceEvent is one Chrome trace_event record (the JSON Array Format that
// chrome://tracing and Perfetto load directly).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// journalTraceEvents renders journal events as instant + counter records on
// pid 1. Each distinct scope/host becomes a named track, decision events
// render as instants on their track, and power-valued events additionally
// emit counter samples so grants and clamps plot as stepped series. Events
// that carry a virtual timestamp are placed on the simulated timeline, so
// the trace ordering matches causal order under the event engine rather
// than recording latency.
func journalTraceEvents(events []Event) (meta, out []traceEvent) {
	tids := map[string]int{}
	var order []string
	tidFor := func(track string) int {
		if id, ok := tids[track]; ok {
			return id
		}
		id := len(tids) + 1
		tids[track] = id
		order = append(order, track)
		return id
	}

	out = make([]traceEvent, 0, 2*len(events)+8)
	for _, e := range events {
		track := e.Scope
		if track == "" {
			track = e.Host
		}
		if track == "" {
			track = e.Layer
		}
		if track == "" {
			track = "stack"
		}
		// Virtual-stamped events plot at their simulated time; everything
		// else falls back to the wall offset.
		ts := float64(e.Time.Microseconds())
		args := map[string]any{"seq": e.Seq, "layer": e.Layer}
		if e.VTime > 0 {
			ts = float64(e.VTime.Microseconds())
			args["wall_ts_us"] = float64(e.Time.Microseconds())
		}
		if e.Scope != "" {
			args["scope"] = e.Scope
		}
		if e.Host != "" {
			args["host"] = e.Host
		}
		if e.Iter != 0 {
			args["iter"] = e.Iter
		}
		if e.Value != 0 {
			args["value"] = e.Value
		}
		if e.Aux != 0 {
			args["aux"] = e.Aux
		}
		out = append(out, traceEvent{
			Name: string(e.Type),
			Ph:   "i",
			TS:   ts,
			PID:  1,
			TID:  tidFor(track),
			S:    "t",
			Args: args,
		})
		// Power decisions also render as counter tracks, which Perfetto
		// plots as stepped time series per scope.
		switch e.Type {
		case EvGrant, EvRegrant:
			out = append(out, traceEvent{
				Name: "grant_watts", Ph: "C", TS: ts, PID: 1, TID: tidFor(track),
				Args: map[string]any{track: e.Value},
			})
		case EvLimitWrite:
			out = append(out, traceEvent{
				Name: "limit_watts", Ph: "C", TS: ts, PID: 1, TID: tidFor(track),
				Args: map[string]any{track: e.Value},
			})
		case EvBudgetChange:
			out = append(out, traceEvent{
				Name: "budget_watts", Ph: "C", TS: ts, PID: 1, TID: tidFor(track),
				Args: map[string]any{track: e.Value},
			})
		}
	}
	// Thread-name metadata makes the tracks readable in the viewer.
	meta = make([]traceEvent, 0, len(order)+1)
	meta = append(meta, traceEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "powerstack"},
	})
	for _, track := range order {
		meta = append(meta, traceEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tids[track],
			Args: map[string]any{"name": track},
		})
	}
	return meta, out
}

// writeTraceDoc wraps trace events in the Chrome JSON Object Format
// envelope that chrome://tracing and Perfetto load directly.
func writeTraceDoc(w io.Writer, events []traceEvent) error {
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return bw.Flush()
}
