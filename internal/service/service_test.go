package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	apiv1 "powerstack/api/v1"
	"powerstack/internal/charz"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/facility"
	"powerstack/internal/kernel"
	"powerstack/internal/obs"
	"powerstack/internal/policy"
	"powerstack/internal/rm"
	"powerstack/internal/units"
)

// Err reports the pacer's terminal error, if stepping the instance failed.
func (h *Host) Err(name string) error {
	hi, err := h.hosted(name)
	if err != nil {
		return err
	}
	hi.mu.Lock()
	defer hi.mu.Unlock()
	return hi.runErr
}

// serviceEnv builds a small service-mode world: six nodes, one
// characterized workload, arrivals off (every job is an external
// submission), and a horizon far beyond what any test walks.
func serviceEnv(t *testing.T) (facility.Config, units.Power) {
	t.Helper()
	c, err := cluster.New(10, cpumodel.Quartz(), cpumodel.QuartzVariation(), 41)
	if err != nil {
		t.Fatal(err)
	}
	workloads := []kernel.Config{{Intensity: 8, Vector: kernel.YMM, Imbalance: 1}}
	db, err := charz.CharacterizeAll(context.Background(), workloads, c.Nodes()[6:], charz.Options{
		MonitorIters: 5, BalancerIters: 30, Seed: 3, NoiseSigma: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	entry, err := db.MustGet(workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	cfg := facility.Config{
		Nodes:           c.Nodes()[:6],
		DB:              db,
		Policy:          policy.MixedAdaptive{},
		SystemBudget:    units.Power(6) * 200,
		CheckpointEvery: 50,
		DisableArrivals: true,
		Duration:        100 * time.Hour,
		Tick:            30 * time.Second,
		Seed:            5,
	}
	// pairDemand is one two-node job's characterized power demand — the
	// unit the quota and budget arithmetic below is written in.
	return cfg, entry.MonitorHostPower * 2
}

// handClock is a pacer clock the test beats by hand, so no service test
// waits on wall-clock scheduling.
type handClock chan time.Time

// maxBeats bounds handClock.waitFor: 100 h of virtual time at the 30 s
// quantum serviceEnv configures.
const maxBeats = 12000

// handPaced installs a hand clock on h and adds the instance, which then
// advances one quantum per beat and never on its own.
func handPaced(t *testing.T, h *Host, cfg InstanceConfig) (handClock, *hosted) {
	t.Helper()
	c := make(handClock)
	h.beats = func(time.Duration) (<-chan time.Time, func()) { return c, func() {} }
	if err := h.Add(cfg); err != nil {
		t.Fatal(err)
	}
	hi, err := h.hosted(cfg.Name)
	if err != nil {
		t.Fatal(err)
	}
	return c, hi
}

// beat hands hi's pacer one beat. The clock is unbuffered and the pacer
// takes a beat only after finishing the one before, so when beat returns
// every earlier beat has been applied.
func (c handClock) beat(t *testing.T, hi *hosted) {
	t.Helper()
	select {
	case c <- time.Time{}:
	case <-hi.done:
		t.Fatalf("pacer exited (err %v)", hi.runErr)
	}
}

// waitFor beats hi's pacer until cond holds, failing after maxBeats.
func (c handClock) waitFor(t *testing.T, hi *hosted, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < maxBeats; i++ {
		if cond() {
			return
		}
		c.beat(t, hi)
	}
	t.Fatalf("%s: not reached after %d beats", what, maxBeats)
}

// get/post drive the API and decode into out; both return the status code.
func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

func post(t *testing.T, url string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestServiceEndToEnd walks the service surface the way powerload and the
// README walkthrough do: two tenants under quota, submissions (accepted,
// over-quota, malformed, deferred), a live budget drop that preempts, the
// restore that resumes, a policy swap, both SSE streams, the request
// latency histogram, and a clean shutdown with a finalized result.
func TestServiceEndToEnd(t *testing.T) {
	cfg, pairDemand := serviceEnv(t)
	sink := obs.New()
	h := NewHost(sink)
	clock, hi := handPaced(t, h, InstanceConfig{Name: "main", Facility: cfg})
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	base := srv.URL

	var insts []apiv1.InstanceStatus
	if code := get(t, base+"/v1/instances", &insts); code != 200 {
		t.Fatalf("GET /v1/instances = %d", code)
	}
	if len(insts) != 1 || insts[0].Name != "main" || insts[0].State != "running" {
		t.Fatalf("instances = %+v", insts)
	}
	if insts[0].Nodes != 6 || insts[0].BudgetWatts != 1200 {
		t.Fatalf("instance shape = %+v", insts[0])
	}

	// Quota partitions: each tenant may hold one two-node job, not two.
	for _, tenant := range []string{"acme", "beta"} {
		if code := post(t, base+"/v1/tenants", apiv1.TenantQuotaRequest{
			Tenant: tenant, QuotaWatts: pairDemand.Watts() * 1.5,
		}, nil); code != 200 {
			t.Fatalf("POST /v1/tenants %s = %d", tenant, code)
		}
	}

	workload := apiv1.WorkloadSpec{Intensity: 8, Vector: "ymm", Imbalance: 1}
	submit := func(tenant string, nodes, iters int, atNs int64) (apiv1.SubmitResponse, int, apiv1.Error) {
		var okResp apiv1.SubmitResponse
		var errResp apiv1.Error
		b, _ := json.Marshal(apiv1.SubmitRequest{
			Tenant: tenant, Workload: workload, Nodes: nodes, Iterations: iters, AtNs: atNs,
		})
		resp, err := http.Post(base+"/v1/submit", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == 200 {
			json.NewDecoder(resp.Body).Decode(&okResp) //nolint:errcheck
		} else {
			json.NewDecoder(resp.Body).Decode(&errResp) //nolint:errcheck
		}
		return okResp, resp.StatusCode, errResp
	}

	// Long jobs (hours of virtual time) so the running set is stable
	// across the preempt/resume choreography below.
	acmeJob, code, _ := submit("acme", 2, 3_000_000, 0)
	if code != 200 || acmeJob.JobID == "" {
		t.Fatalf("acme submit = %d %+v", code, acmeJob)
	}
	_, code, werr := submit("acme", 4, 3_000_000, 0)
	if code != 422 || werr.Code != apiv1.CodeTenantQuotaExceeded {
		t.Fatalf("over-quota submit = %d %+v, want 422 tenant_quota_exceeded", code, werr)
	}
	betaJob, code, _ := submit("beta", 2, 3_000_000, 0)
	if code != 200 {
		t.Fatalf("beta submit = %d", code)
	}

	// Malformed vector → 400 with the stable code.
	var badErr apiv1.Error
	if code := post(t, base+"/v1/submit", apiv1.SubmitRequest{
		Tenant: "acme", Workload: apiv1.WorkloadSpec{Intensity: 8, Vector: "avx512", Imbalance: 1},
		Nodes: 2, Iterations: 1000,
	}, &badErr); code != 400 || badErr.Code != apiv1.CodeBadRequest {
		t.Fatalf("bad vector = %d %+v", code, badErr)
	}

	status := func() apiv1.InstanceStatus {
		var st apiv1.InstanceStatus
		if code := get(t, base+"/v1/instances/main", &st); code != 200 {
			t.Fatalf("GET /v1/instances/main = %d", code)
		}
		return st
	}
	clock.waitFor(t, hi, "both jobs running", func() bool { return status().RunningJobs >= 2 })

	// A deferred submission an hour of virtual time out: visible as
	// scheduled immediately.
	deferred, code, _ := submit("beta", 1, 1000, int64(status().NowNs)+int64(time.Hour))
	if code != 200 || deferred.State != "scheduled" {
		t.Fatalf("deferred submit = %d %+v, want scheduled", code, deferred)
	}

	var job apiv1.JobStatus
	if code := get(t, base+"/v1/jobs/"+acmeJob.JobID, &job); code != 200 {
		t.Fatalf("GET /v1/jobs/%s = %d", acmeJob.JobID, code)
	}
	if job.Tenant != "acme" || job.State != "running" || job.Nodes != 2 {
		t.Fatalf("job status = %+v", job)
	}
	var jobs []apiv1.JobStatus
	if code := get(t, base+"/v1/jobs", &jobs); code != 200 || len(jobs) != 3 {
		t.Fatalf("GET /v1/jobs = %d, %d jobs (want 3)", code, len(jobs))
	}

	var tenants []apiv1.TenantStatus
	if code := get(t, base+"/v1/tenants", &tenants); code != 200 || len(tenants) != 2 {
		t.Fatalf("GET /v1/tenants = %d %+v", code, tenants)
	}
	for _, tn := range tenants {
		if tn.CommittedWatts <= 0 {
			t.Errorf("tenant %s committed %.1f W, want > 0", tn.Name, tn.CommittedWatts)
		}
	}

	// The drop must land after both pairs have crossed their first
	// checkpoint in virtual time. Earlier — at virtual t=0, before the
	// pacer has beaten — the preempted job checkpoints nothing, restarts
	// from scratch, and never counts a resume.
	clock.waitFor(t, hi, "both jobs past their first checkpoint", func() bool {
		var js []apiv1.JobStatus
		if code := get(t, base+"/v1/jobs", &js); code != 200 {
			return false
		}
		past := 0
		for _, j := range js {
			if j.State == "running" && j.Remaining <= j.Iterations-cfg.CheckpointEvery {
				past++
			}
		}
		return past >= 2
	})

	// Live budget drop strands one of the two running pairs: the
	// emergency path preempts it to its checkpoint.
	var swap apiv1.BudgetSwapResponse
	if code := post(t, base+"/v1/budget", apiv1.BudgetSwapRequest{
		BudgetWatts: pairDemand.Watts() * 1.5,
	}, &swap); code != 200 {
		t.Fatalf("POST /v1/budget = %d", code)
	}
	clock.waitFor(t, hi, "budget drop preempting a job", func() bool {
		st := status()
		return st.Preempted > 0 && st.BudgetChanges > 0
	})

	// Restore: the preempted job restarts from its checkpoint.
	if code := post(t, base+"/v1/budget", apiv1.BudgetSwapRequest{
		BudgetWatts: cfg.SystemBudget.Watts(),
	}, nil); code != 200 {
		t.Fatalf("POST /v1/budget restore = %d", code)
	}
	clock.waitFor(t, hi, "preempted job resuming", func() bool { return status().Resumed > 0 })

	// Policy surface: list, then swap by separator-insensitive name.
	var plist apiv1.PolicyListResponse
	if code := get(t, base+"/v1/policies", &plist); code != 200 {
		t.Fatalf("GET /v1/policies = %d", code)
	}
	if plist.Active != "MixedAdaptive" {
		t.Errorf("active policy = %q, want MixedAdaptive", plist.Active)
	}
	if code := post(t, base+"/v1/policy", apiv1.PolicySwapRequest{Policy: "static-caps"}, &plist); code != 200 {
		t.Fatalf("POST /v1/policy = %d", code)
	}
	if plist.Active != "StaticCaps" {
		t.Errorf("swapped policy = %q, want StaticCaps", plist.Active)
	}

	// The deferred submission fires when virtual time reaches it.
	clock.waitFor(t, hi, "deferred submission firing", func() bool {
		var dj apiv1.JobStatus
		if code := get(t, base+"/v1/jobs/"+deferred.JobID, &dj); code != 200 {
			return false
		}
		return dj.State != "scheduled"
	})

	// Both SSE streams produce frames.
	readSSE(t, base+"/v1/stream/telemetry?interval=50ms", 2, func(line string) {
		var f apiv1.TelemetryFrame
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Errorf("telemetry frame %q: %v", line, err)
		}
	})
	readSSE(t, base+"/v1/stream/events", 1, nil)

	// The request-latency histogram reached the metrics surface.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	if !strings.Contains(buf.String(), "powerstackd_request_seconds") {
		t.Error("request latency histogram missing from /metrics")
	}

	// Clean shutdown finalizes the result mid-flight.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := h.Err("main"); err != nil {
		t.Fatalf("pacer error: %v", err)
	}
	res, err := h.Result("main")
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted < 3 || res.Started < 2 || res.Preempted < 1 || res.Resumed < 1 {
		t.Errorf("result = submitted %d started %d preempted %d resumed %d",
			res.Submitted, res.Started, res.Preempted, res.Resumed)
	}
	_ = betaJob
}

// readSSE reads n data frames from an SSE endpoint, passing each JSON
// payload to check.
func readSSE(t *testing.T, url string, n int, check func(string)) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	seen := 0
	for sc.Scan() && seen < n {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		seen++
		if check != nil {
			check(strings.TrimPrefix(line, "data: "))
		}
	}
	if seen < n {
		t.Fatalf("GET %s: saw %d data frames, want %d", url, seen, n)
	}
}

// TestPauseResumeOverHTTP pins that pause freezes virtual time and resume
// releases it: beats delivered while paused are skipped.
func TestPauseResumeOverHTTP(t *testing.T) {
	cfg, _ := serviceEnv(t)
	h := NewHost(obs.New())
	clock, hi := handPaced(t, h, InstanceConfig{Name: "main", Facility: cfg})
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	now := func() int64 {
		var st apiv1.InstanceStatus
		if code := get(t, srv.URL+"/v1/instances/main", &st); code != 200 {
			t.Fatalf("GET instance = %d", code)
		}
		return st.NowNs
	}
	clock.waitFor(t, hi, "virtual time to advance", func() bool { return now() > 0 })

	var st apiv1.InstanceStatus
	if code := post(t, srv.URL+"/v1/instances/main/pause", nil, &st); code != 200 || st.State != "paused" {
		t.Fatalf("pause = %d %+v", code, st)
	}
	frozen := now()
	for i := 0; i < 5; i++ {
		clock.beat(t, hi)
		if got := now(); got != frozen {
			t.Fatalf("virtual time advanced while paused: %d -> %d after %d beats", frozen, got, i+1)
		}
	}
	if code := post(t, srv.URL+"/v1/instances/main/resume", nil, &st); code != 200 || st.State != "running" {
		t.Fatalf("resume = %d %+v", code, st)
	}
	clock.waitFor(t, hi, "virtual time to advance after resume", func() bool { return now() > frozen })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestHostRouting pins instance resolution: unknown instances 404, the
// default instance serves requests that omit one.
func TestHostRouting(t *testing.T) {
	cfg, _ := serviceEnv(t)
	h := NewHost(obs.New())
	if err := h.Add(InstanceConfig{Name: "main", Facility: cfg, Speedup: 1e9}); err != nil {
		t.Fatal(err)
	}
	if err := h.Add(InstanceConfig{Name: "main", Facility: cfg}); err == nil {
		t.Fatal("duplicate instance name accepted")
	}
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	var werr apiv1.Error
	if code := get(t, srv.URL+"/v1/instances/nope", &werr); code != 404 || werr.Code != apiv1.CodeNotFound {
		t.Fatalf("unknown instance = %d %+v", code, werr)
	}
	if code := get(t, srv.URL+"/v1/jobs/nope", &werr); code != 404 {
		t.Fatalf("unknown job = %d", code)
	}
	// Unrouted /v1 paths (an unknown route, an empty job ID, a lone
	// escaped slash) answer the API's not_found error too.
	for _, path := range []string{"/v1/nope", "/v1/jobs/", "/v1/jobs/%2F"} {
		werr = apiv1.Error{}
		if code := get(t, srv.URL+path, &werr); code != 404 || werr.Code != apiv1.CodeNotFound {
			t.Fatalf("GET %s = %d %+v, want 404 %s", path, code, werr, apiv1.CodeNotFound)
		}
	}
	var jobs []apiv1.JobStatus
	if code := get(t, srv.URL+"/v1/jobs", &jobs); code != 200 || jobs == nil {
		t.Fatalf("default-instance jobs = %d %v (want empty list, not null)", code, jobs)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitJobIDsRouteBack pins that every job ID /v1/submit accepts
// reads back through GET /v1/jobs/{id}: IDs the route cannot address (a
// "/" anywhere, a lone "." or "..") are refused as bad requests, and
// dotted IDs that stay one clean segment are accepted and read back.
func TestSubmitJobIDsRouteBack(t *testing.T) {
	cfg, _ := serviceEnv(t)
	h := NewHost(nil)
	handPaced(t, h, InstanceConfig{Name: "main", Facility: cfg, Speedup: 1})
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	submit := func(id string, out any) int {
		return post(t, srv.URL+"/v1/submit", apiv1.SubmitRequest{
			JobID: id, Workload: apiv1.WorkloadSpec{Intensity: 8, Vector: "ymm", Imbalance: 1},
			Nodes: 2, Iterations: 100,
		}, out)
	}
	for _, id := range []string{"/", "a/b", "/lead", "trail/", ".", ".."} {
		var werr apiv1.Error
		if code := submit(id, &werr); code != 400 || werr.Code != apiv1.CodeBadRequest {
			t.Errorf("submit %q = %d %+v, want 400 %s", id, code, werr, apiv1.CodeBadRequest)
		}
	}
	for _, id := range []string{"a.b", "..."} {
		var sub apiv1.SubmitResponse
		if code := submit(id, &sub); code != 200 || sub.JobID != id {
			t.Fatalf("submit %q = %d %+v", id, code, sub)
		}
		var js apiv1.JobStatus
		if code := get(t, srv.URL+"/v1/jobs/"+id, &js); code != 200 || js.ID != id {
			t.Errorf("GET /v1/jobs/%s = %d %+v", id, code, js)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestPolicyByName pins the separator-insensitive resolver.
func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"MixedAdaptive", "mixed-adaptive", "mixed_adaptive", "MIXEDADAPTIVE"} {
		p, err := policyByName(name)
		if err != nil {
			t.Fatalf("policyByName(%q): %v", name, err)
		}
		if p.Name() != "MixedAdaptive" {
			t.Errorf("policyByName(%q) = %s", name, p.Name())
		}
	}
	if _, err := policyByName("round-robin"); err == nil {
		t.Error("unknown policy resolved")
	}
}

// TestErrorStatusMapping pins sentinel → (status, code).
func TestErrorStatusMapping(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{fmt.Errorf("wrap: %w", errNotFound), 404, apiv1.CodeNotFound},
		{fmt.Errorf("wrap: %w", errBadRequest), 400, apiv1.CodeBadRequest},
		{fmt.Errorf("wrap: %w", facility.ErrInvalidSubmission), 400, apiv1.CodeBadRequest},
		{rm.ErrTenantQuotaExceeded, 422, apiv1.CodeTenantQuotaExceeded},
		{rm.ErrBudgetInfeasible, 422, apiv1.CodeBudgetInfeasible},
		{rm.ErrInsufficientNodes, 422, apiv1.CodeInsufficientNodes},
		{charz.ErrNotCharacterized, 422, apiv1.CodeNotCharacterized},
		{facility.ErrDuplicateJobID, 409, apiv1.CodeDuplicateJob},
		{facility.ErrInstanceClosed, 409, apiv1.CodeInstanceClosed},
		{fmt.Errorf("boom"), 500, apiv1.CodeInternal},
	}
	for _, c := range cases {
		status, code := errorStatus(c.err)
		if status != c.status || code != c.code {
			t.Errorf("errorStatus(%v) = %d %s, want %d %s", c.err, status, code, c.status, c.code)
		}
	}
}
