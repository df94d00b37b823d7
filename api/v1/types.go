// Package apiv1 is powerstackd's versioned wire surface: the typed
// request/response bodies of every /v1 endpoint, deliberately decoupled
// from the internal simulation types. Nothing here imports an internal
// package — external clients (cmd/powerload, curl consumers, future SDKs)
// can depend on these shapes without reaching into internal/, and the
// service layer owns the conversions.
//
// Versioning contract: within v1, fields are only ever added, never
// renamed, retyped, or removed, and clients must ignore fields they do not
// know (Go's encoding/json does this by default; the tolerance test in
// types_test.go pins it). Durations and timestamps travel as integer
// nanoseconds on the virtual timeline (`..._ns`), powers as float watts
// (`..._watts`) — the run's virtual time zero is instant 0.
package apiv1

// Version is the wire-format version this package describes; it prefixes
// every route ("/v1/...").
const Version = "v1"

// Error is the body of every non-2xx response.
type Error struct {
	// Code is a stable machine-readable slug ("tenant_quota_exceeded",
	// "budget_infeasible", "not_found", "bad_request", "instance_closed").
	Code string `json:"code"`
	// Message is human-readable detail.
	Message string `json:"message"`
}

// Stable error codes.
const (
	CodeBadRequest          = "bad_request"
	CodeNotFound            = "not_found"
	CodeTenantQuotaExceeded = "tenant_quota_exceeded"
	CodeBudgetInfeasible    = "budget_infeasible"
	CodeNotCharacterized    = "not_characterized"
	CodeInsufficientNodes   = "insufficient_nodes"
	CodeDuplicateJob        = "duplicate_job"
	CodeInstanceClosed      = "instance_closed"
	CodeInternal            = "internal"
)

// WorkloadSpec names a kernel configuration the facility's
// characterization database must know.
type WorkloadSpec struct {
	// Intensity is the arithmetic intensity knob (FLOPs per byte).
	Intensity float64 `json:"intensity"`
	// Vector is the ISA width: "scalar", "xmm", or "ymm".
	Vector string `json:"vector"`
	// WaitingPct is the blocked-time percentage (0, 25, 50, or 75).
	WaitingPct int `json:"waiting_pct,omitempty"`
	// Imbalance is the cross-rank work skew factor (>= 1).
	Imbalance float64 `json:"imbalance"`
}

// SubmitRequest is POST /v1/submit: one job for a hosted instance.
type SubmitRequest struct {
	// Instance targets a hosted instance; empty selects the daemon's
	// default instance.
	Instance string `json:"instance,omitempty"`
	// JobID optionally names the job; empty lets the server generate one.
	JobID string `json:"job_id,omitempty"`
	// Tenant is the submitting tenant; empty is the default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Workload, Nodes, and Iterations shape the job.
	Workload   WorkloadSpec `json:"workload"`
	Nodes      int          `json:"nodes"`
	Iterations int          `json:"iterations"`
	// AtNs optionally defers the submission to a virtual instant; zero or
	// past submits now.
	AtNs int64 `json:"at_ns,omitempty"`
}

// SubmitResponse acknowledges an accepted submission.
type SubmitResponse struct {
	JobID string `json:"job_id"`
	// State is the job's state at acceptance ("queued", "running", or
	// "scheduled" for deferred submissions).
	State string `json:"state"`
	// NowNs is the instance's virtual time at acceptance.
	NowNs int64 `json:"now_ns"`
}

// JobStatus is one job's lifecycle record (GET /v1/jobs/{id}, and the
// elements of GET /v1/jobs).
type JobStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	// State is "scheduled", "queued", "running", "completed", "killed",
	// or "rejected".
	State      string `json:"state"`
	Nodes      int    `json:"nodes"`
	Iterations int    `json:"iterations"`
	Remaining  int    `json:"remaining"`
	// SubmittedAtNs/StartedAtNs/FinishedAtNs are virtual instants; zero
	// means "not yet".
	SubmittedAtNs int64 `json:"submitted_at_ns"`
	StartedAtNs   int64 `json:"started_at_ns,omitempty"`
	FinishedAtNs  int64 `json:"finished_at_ns,omitempty"`
	Preemptions   int   `json:"preemptions,omitempty"`
	Requeues      int   `json:"requeues,omitempty"`
	Resumes       int   `json:"resumes,omitempty"`
}

// TenantStatus is one tenant's admission partition (GET /v1/tenants).
type TenantStatus struct {
	Name           string  `json:"name"`
	QuotaWatts     float64 `json:"quota_watts"`
	CommittedWatts float64 `json:"committed_watts"`
}

// TenantQuotaRequest is POST /v1/tenants: install (or remove, with zero
// quota) a tenant's power partition.
type TenantQuotaRequest struct {
	Instance   string  `json:"instance,omitempty"`
	Tenant     string  `json:"tenant"`
	QuotaWatts float64 `json:"quota_watts"`
}

// InstanceStatus is a hosted instance's live snapshot
// (GET /v1/instances/{name}).
type InstanceStatus struct {
	Name string `json:"name"`
	// State is "new", "running", "paused", or "closed".
	State string `json:"state"`
	// NowNs and HorizonNs delimit virtual time; SpeedupX is the pacer's
	// virtual-to-wall ratio.
	NowNs     int64   `json:"now_ns"`
	HorizonNs int64   `json:"horizon_ns"`
	SpeedupX  float64 `json:"speedup_x,omitempty"`
	// BudgetWatts is the budget in force; CommittedWatts the admitted
	// demand against it.
	BudgetWatts    float64 `json:"budget_watts"`
	CommittedWatts float64 `json:"committed_watts"`
	Nodes          int     `json:"nodes"`
	FreeNodes      int     `json:"free_nodes"`
	QueuedJobs     int     `json:"queued_jobs"`
	RunningJobs    int     `json:"running_jobs"`
	// Lifecycle counters for the run so far.
	Submitted     int `json:"submitted"`
	Started       int `json:"started"`
	Completed     int `json:"completed"`
	Rejected      int `json:"rejected,omitempty"`
	Preempted     int `json:"preempted,omitempty"`
	Killed        int `json:"killed,omitempty"`
	Resumed       int `json:"resumed,omitempty"`
	Requeued      int `json:"requeued,omitempty"`
	BudgetChanges int `json:"budget_changes,omitempty"`
	// Tenants lists the quota partitions.
	Tenants []TenantStatus `json:"tenants,omitempty"`
	// LastPowerWatts/LastSampleNs are the newest telemetry sample.
	LastPowerWatts float64 `json:"last_power_watts,omitempty"`
	LastSampleNs   int64   `json:"last_sample_ns,omitempty"`
	// Error is the error that stopped the instance's pacer: stepping the
	// simulation failed and virtual time no longer advances.
	Error string `json:"error,omitempty"`
}

// BudgetSwapRequest is POST /v1/budget: a live facility-budget step. It
// lands on the instance's budget timeline exactly as a configured
// BudgetStep would — including the emergency shed when the new budget
// strands committed power.
type BudgetSwapRequest struct {
	Instance    string  `json:"instance,omitempty"`
	BudgetWatts float64 `json:"budget_watts"`
	// AtNs schedules the step at a virtual instant; zero or past applies
	// it now.
	AtNs int64 `json:"at_ns,omitempty"`
}

// BudgetSwapResponse acknowledges a scheduled budget step.
type BudgetSwapResponse struct {
	BudgetWatts float64 `json:"budget_watts"`
	// AtNs is the resolved effective instant (clamped to now).
	AtNs int64 `json:"at_ns"`
}

// PolicySwapRequest is POST /v1/policy: swap the power-distribution
// policy live.
type PolicySwapRequest struct {
	Instance string `json:"instance,omitempty"`
	// Policy names a registered policy ("static", "adaptive",
	// "mixed-adaptive", ...; GET /v1/policies lists them).
	Policy string `json:"policy"`
}

// PolicyListResponse is GET /v1/policies.
type PolicyListResponse struct {
	Policies []string `json:"policies"`
	// Active is the targeted instance's current policy name.
	Active string `json:"active,omitempty"`
}

// TelemetryFrame is one SSE frame of GET /v1/stream/telemetry.
type TelemetryFrame struct {
	// AtNs is the virtual instant of the frame.
	AtNs int64 `json:"at_ns"`
	// PowerWatts is facility power at the newest sample; BudgetWatts the
	// budget in force.
	PowerWatts  float64 `json:"power_watts"`
	BudgetWatts float64 `json:"budget_watts"`
	Running     int     `json:"running"`
	Queued      int     `json:"queued"`
	Completed   int     `json:"completed"`
	Preempted   int     `json:"preempted,omitempty"`
	Killed      int     `json:"killed,omitempty"`
}

// EventFrame is one SSE frame of GET /v1/stream/events: a journaled
// decision translated to wire form. VtNs carries the virtual timestamp;
// the remaining fields mirror the journal's flat schema.
type EventFrame struct {
	Seq   uint64  `json:"seq"`
	VtNs  int64   `json:"vt_ns"`
	Type  string  `json:"type"`
	Layer string  `json:"layer,omitempty"`
	Scope string  `json:"scope,omitempty"`
	Host  string  `json:"host,omitempty"`
	Value float64 `json:"value,omitempty"`
	Aux   float64 `json:"aux,omitempty"`
}
