package service

// The /v1 HTTP surface. Every body is a typed api/v1 struct; every
// admission failure maps to a stable error code; virtual times travel as
// integer nanoseconds. The debug mux (metrics, journal, traces, pprof)
// stays mounted under "/", so one listener serves both the service API
// and the observability surface it reports into.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	apiv1 "powerstack/api/v1"
	"powerstack/internal/charz"
	"powerstack/internal/facility"
	"powerstack/internal/kernel"
	"powerstack/internal/obs"
	"powerstack/internal/policy"
	"powerstack/internal/rm"
	"powerstack/internal/units"
)

// errBadRequest marks malformed request bodies and parameters; the HTTP
// layer maps it to 400.
var errBadRequest = errors.New("service: bad request")

// requestBuckets are the latency histogram bounds (seconds) for
// powerstackd_request_seconds.
var requestBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5}

// Handler returns the daemon's HTTP surface: the /v1 API routed by method
// and path pattern, with the obs debug mux serving every path outside /v1.
func (h *Host) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/instances", h.handleInstances)
	mux.HandleFunc("GET /v1/instances/{name}", h.handleInstance)
	mux.HandleFunc("POST /v1/instances/{name}/pause", h.handlePause)
	mux.HandleFunc("POST /v1/instances/{name}/resume", h.handleResume)
	mux.HandleFunc("POST /v1/submit", h.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", h.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", h.handleJob)
	mux.HandleFunc("GET /v1/tenants", h.handleTenants)
	mux.HandleFunc("POST /v1/tenants", h.handleTenantQuota)
	mux.HandleFunc("POST /v1/budget", h.handleBudget)
	mux.HandleFunc("POST /v1/policy", h.handlePolicySwap)
	mux.HandleFunc("GET /v1/policies", h.handlePolicies)
	mux.HandleFunc("GET /v1/stream/telemetry", h.handleStreamTelemetry)
	mux.HandleFunc("GET /v1/stream/events", h.handleStreamEvents)
	// Any other /v1 request answers the API's not_found error rather than
	// the debug mux's plain-text 404, so the error contract covers every
	// /v1 path.
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, fmt.Errorf("%w: %s %s", errNotFound, r.Method, r.URL.Path))
	})
	mux.Handle("/", obs.NewMux(h.sink))
	return h.instrument(mux)
}

// instrument observes per-route request latency into the sink's registry
// (surfaced at /metrics). Streaming routes are excluded — their duration
// is the client's attention span, not a latency.
func (h *Host) instrument(next http.Handler) http.Handler {
	if h.sink == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		if route := r.Pattern; route != "" && !strings.HasPrefix(route, "GET /v1/stream/") {
			h.sink.Metrics.Histogram("powerstackd_request_seconds", requestBuckets, "route", route).
				Observe(time.Since(start).Seconds())
		}
	})
}

// --- encoding helpers ---

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone mid-write
}

// writeError maps an internal error to its wire status and stable code.
func writeError(w http.ResponseWriter, err error) {
	status, code := errorStatus(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiv1.Error{Code: code, Message: err.Error()}) //nolint:errcheck
}

// errorStatus is the error contract: one admission sentinel, one code.
func errorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, errNotFound):
		return http.StatusNotFound, apiv1.CodeNotFound
	case errors.Is(err, errBadRequest), errors.Is(err, facility.ErrInvalidSubmission):
		return http.StatusBadRequest, apiv1.CodeBadRequest
	case errors.Is(err, rm.ErrTenantQuotaExceeded):
		return http.StatusUnprocessableEntity, apiv1.CodeTenantQuotaExceeded
	case errors.Is(err, rm.ErrBudgetInfeasible):
		return http.StatusUnprocessableEntity, apiv1.CodeBudgetInfeasible
	case errors.Is(err, rm.ErrInsufficientNodes):
		return http.StatusUnprocessableEntity, apiv1.CodeInsufficientNodes
	case errors.Is(err, charz.ErrNotCharacterized):
		return http.StatusUnprocessableEntity, apiv1.CodeNotCharacterized
	case errors.Is(err, facility.ErrDuplicateJobID):
		return http.StatusConflict, apiv1.CodeDuplicateJob
	case errors.Is(err, facility.ErrInstanceClosed):
		return http.StatusConflict, apiv1.CodeInstanceClosed
	default:
		return http.StatusInternalServerError, apiv1.CodeInternal
	}
}

// decode reads a bounded JSON body into a wire struct.
func decode[T any](r *http.Request) (*T, error) {
	var v T
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&v); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return &v, nil
}

// --- wire conversions ---

// workloadConfig resolves a wire workload spec to a kernel config.
func workloadConfig(ws apiv1.WorkloadSpec) (kernel.Config, error) {
	var v kernel.Vector
	switch strings.ToLower(ws.Vector) {
	case "scalar":
		v = kernel.Scalar
	case "xmm":
		v = kernel.XMM
	case "ymm":
		v = kernel.YMM
	default:
		return kernel.Config{}, fmt.Errorf("%w: unknown vector %q (want scalar, xmm, or ymm)", errBadRequest, ws.Vector)
	}
	imb := ws.Imbalance
	if imb == 0 {
		imb = 1
	}
	return kernel.Config{Intensity: ws.Intensity, Vector: v, WaitingPct: ws.WaitingPct, Imbalance: imb}, nil
}

func jobStatus(ji facility.JobInfo) apiv1.JobStatus {
	return apiv1.JobStatus{
		ID: ji.ID, Tenant: ji.Tenant, State: string(ji.State),
		Nodes: ji.Nodes, Iterations: ji.Iterations, Remaining: ji.Remaining,
		SubmittedAtNs: int64(ji.SubmittedAt),
		StartedAtNs:   int64(ji.StartedAt),
		FinishedAtNs:  int64(ji.FinishedAt),
		Preemptions:   ji.Preemptions, Requeues: ji.Requeues, Resumes: ji.Resumes,
	}
}

func instanceStatus(name string, speedup float64, sn facility.Snapshot, nodes int) apiv1.InstanceStatus {
	st := apiv1.InstanceStatus{
		Name:           name,
		State:          string(sn.State),
		NowNs:          int64(sn.Now),
		HorizonNs:      int64(sn.Horizon),
		SpeedupX:       speedup,
		BudgetWatts:    sn.Budget.Watts(),
		CommittedWatts: sn.CommittedPower.Watts(),
		Nodes:          nodes,
		FreeNodes:      sn.FreeNodes,
		QueuedJobs:     sn.QueuedJobs,
		RunningJobs:    len(sn.Running),
		Submitted:      sn.Submitted,
		Started:        sn.Started,
		Completed:      sn.Completed,
		Rejected:       sn.Rejected,
		Preempted:      sn.Preempted,
		Killed:         sn.Killed,
		Resumed:        sn.Resumed,
		Requeued:       sn.Requeued,
		BudgetChanges:  sn.BudgetChanges,
		LastPowerWatts: sn.LastPower.Watts(),
		LastSampleNs:   int64(sn.LastSampleAt),
	}
	for _, t := range sn.Tenants {
		st.Tenants = append(st.Tenants, apiv1.TenantStatus{
			Name: t.Name, QuotaWatts: t.Quota.Watts(), CommittedWatts: t.Committed.Watts(),
		})
	}
	return st
}

// status builds a hosted instance's wire status under its lock.
func (hi *hosted) status() apiv1.InstanceStatus {
	hi.mu.Lock()
	sn := hi.in.Snapshot()
	nodes := hi.in.Nodes()
	runErr := hi.runErr
	hi.mu.Unlock()
	st := instanceStatus(hi.name, hi.speedup, sn, nodes)
	if runErr != nil {
		st.Error = runErr.Error()
	}
	return st
}

// --- handlers ---

func (h *Host) handleInstances(w http.ResponseWriter, _ *http.Request) {
	out := []apiv1.InstanceStatus{}
	for _, hi := range h.all() {
		out = append(out, hi.status())
	}
	writeJSON(w, out)
}

func (h *Host) handleInstance(w http.ResponseWriter, r *http.Request) {
	hi, err := h.hosted(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, hi.status())
}

func (h *Host) handlePause(w http.ResponseWriter, r *http.Request) {
	h.lifecycle(w, r, func(in *facility.Instance) error { return in.Pause() })
}

func (h *Host) handleResume(w http.ResponseWriter, r *http.Request) {
	h.lifecycle(w, r, func(in *facility.Instance) error { return in.Resume() })
}

func (h *Host) lifecycle(w http.ResponseWriter, r *http.Request, op func(*facility.Instance) error) {
	hi, err := h.hosted(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	hi.mu.Lock()
	err = op(hi.in)
	hi.mu.Unlock()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, hi.status())
}

func (h *Host) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decode[apiv1.SubmitRequest](r)
	if err != nil {
		writeError(w, err)
		return
	}
	// GET /v1/jobs/{id} must route back to every accepted job: a "/" splits
	// the path segment, and path cleaning rewrites a "." or ".." one.
	if strings.Contains(req.JobID, "/") || req.JobID == "." || req.JobID == ".." {
		writeError(w, fmt.Errorf("%w: job_id %q is not addressable as /v1/jobs/{id}", errBadRequest, req.JobID))
		return
	}
	hi, err := h.hosted(req.Instance)
	if err != nil {
		writeError(w, err)
		return
	}
	wl, err := workloadConfig(req.Workload)
	if err != nil {
		writeError(w, err)
		return
	}
	sub := facility.Submission{
		ID: req.JobID, Tenant: req.Tenant, Workload: wl,
		Nodes: req.Nodes, Iterations: req.Iterations,
	}
	hi.mu.Lock()
	id, err := hi.in.Inject(time.Duration(req.AtNs), sub)
	var state string
	var now int64
	if err == nil {
		now = int64(hi.in.Now())
		if ji, ok := hi.in.Job(id); ok {
			state = string(ji.State)
		}
	}
	hi.mu.Unlock()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, apiv1.SubmitResponse{JobID: id, State: state, NowNs: now})
}

func (h *Host) handleJobs(w http.ResponseWriter, r *http.Request) {
	hi, err := h.hosted(r.URL.Query().Get("instance"))
	if err != nil {
		writeError(w, err)
		return
	}
	hi.mu.Lock()
	jobs := hi.in.Jobs()
	hi.mu.Unlock()
	out := make([]apiv1.JobStatus, 0, len(jobs))
	for _, ji := range jobs {
		out = append(out, jobStatus(ji))
	}
	writeJSON(w, out)
}

func (h *Host) handleJob(w http.ResponseWriter, r *http.Request) {
	hi, err := h.hosted(r.URL.Query().Get("instance"))
	if err != nil {
		writeError(w, err)
		return
	}
	id := r.PathValue("id")
	hi.mu.Lock()
	ji, ok := hi.in.Job(id)
	hi.mu.Unlock()
	if !ok {
		writeError(w, fmt.Errorf("%w: job %q", errNotFound, id))
		return
	}
	writeJSON(w, jobStatus(ji))
}

func (h *Host) handleTenants(w http.ResponseWriter, r *http.Request) {
	hi, err := h.hosted(r.URL.Query().Get("instance"))
	if err != nil {
		writeError(w, err)
		return
	}
	sn := hi.snapshot()
	out := make([]apiv1.TenantStatus, 0, len(sn.Tenants))
	for _, t := range sn.Tenants {
		out = append(out, apiv1.TenantStatus{
			Name: t.Name, QuotaWatts: t.Quota.Watts(), CommittedWatts: t.Committed.Watts(),
		})
	}
	writeJSON(w, out)
}

func (h *Host) handleTenantQuota(w http.ResponseWriter, r *http.Request) {
	req, err := decode[apiv1.TenantQuotaRequest](r)
	if err != nil {
		writeError(w, err)
		return
	}
	hi, err := h.hosted(req.Instance)
	if err != nil {
		writeError(w, err)
		return
	}
	hi.mu.Lock()
	err = hi.in.SetTenantQuota(req.Tenant, units.Power(req.QuotaWatts))
	hi.mu.Unlock()
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	writeJSON(w, apiv1.TenantStatus{Name: req.Tenant, QuotaWatts: req.QuotaWatts})
}

func (h *Host) handleBudget(w http.ResponseWriter, r *http.Request) {
	req, err := decode[apiv1.BudgetSwapRequest](r)
	if err != nil {
		writeError(w, err)
		return
	}
	hi, err := h.hosted(req.Instance)
	if err != nil {
		writeError(w, err)
		return
	}
	at := time.Duration(req.AtNs)
	hi.mu.Lock()
	if now := hi.in.Now(); at < now {
		at = now
	}
	err = hi.in.ScheduleBudget(at, units.Power(req.BudgetWatts))
	hi.mu.Unlock()
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	writeJSON(w, apiv1.BudgetSwapResponse{BudgetWatts: req.BudgetWatts, AtNs: int64(at)})
}

func (h *Host) handlePolicySwap(w http.ResponseWriter, r *http.Request) {
	req, err := decode[apiv1.PolicySwapRequest](r)
	if err != nil {
		writeError(w, err)
		return
	}
	hi, err := h.hosted(req.Instance)
	if err != nil {
		writeError(w, err)
		return
	}
	p, err := policy.ByName(req.Policy)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	hi.mu.Lock()
	err = hi.in.SetPolicy(p)
	hi.mu.Unlock()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, apiv1.PolicyListResponse{Policies: policyNames(), Active: p.Name()})
}

func policyNames() []string {
	var names []string
	for _, p := range policy.All() {
		names = append(names, p.Name())
	}
	sort.Strings(names)
	return names
}

func (h *Host) handlePolicies(w http.ResponseWriter, r *http.Request) {
	resp := apiv1.PolicyListResponse{Policies: policyNames()}
	if hi, err := h.hosted(r.URL.Query().Get("instance")); err == nil {
		hi.mu.Lock()
		resp.Active = hi.in.Policy().Name()
		hi.mu.Unlock()
	}
	writeJSON(w, resp)
}

// handleStreamTelemetry serves periodic instance telemetry as SSE: a hello
// frame, as /v1/stream/events opens with, then one TelemetryFrame per wall
// interval (?interval=, default 1s, floor 50ms).
func (h *Host) handleStreamTelemetry(w http.ResponseWriter, r *http.Request) {
	hi, err := h.hosted(r.URL.Query().Get("instance"))
	if err != nil {
		writeError(w, err)
		return
	}
	sse := obs.OpenSSE(w)
	if sse == nil {
		return
	}
	sse.Send("hello", []byte("{}"))
	sse.Tick(r, time.Second, func() ([]byte, error) {
		sn := hi.snapshot()
		return json.Marshal(apiv1.TelemetryFrame{
			AtNs:        int64(sn.Now),
			PowerWatts:  sn.LastPower.Watts(),
			BudgetWatts: sn.Budget.Watts(),
			Running:     len(sn.Running),
			Queued:      sn.QueuedJobs,
			Completed:   sn.Completed,
			Preempted:   sn.Preempted,
			Killed:      sn.Killed,
		})
	})
}

// handleStreamEvents serves the live decision-event feed translated to
// wire EventFrames (the obs debug mux at /stream/events serves the raw
// journal schema; this is the versioned view).
func (h *Host) handleStreamEvents(w http.ResponseWriter, r *http.Request) {
	if h.sink == nil || h.sink.Stream == nil {
		http.Error(w, "streaming disabled: no sink", http.StatusServiceUnavailable)
		return
	}
	sse := obs.OpenSSE(w)
	if sse == nil {
		return
	}
	sub := h.sink.Stream.Subscribe(obs.DefaultStreamBuffer)
	defer sub.Close()

	sse.Send("hello", []byte("{}"))
	sse.Relay(r, sub, func(e obs.Event) ([]byte, error) {
		return json.Marshal(apiv1.EventFrame{
			Seq: e.Seq, VtNs: int64(e.VTime), Type: string(e.Type),
			Layer: e.Layer, Scope: e.Scope, Host: e.Host,
			Value: e.Value, Aux: e.Aux,
		})
	})
}
