package apiv1

import (
	"encoding/json"
	"reflect"
	"testing"
)

// golden pairs a populated wire value with its pinned encoding. The
// encodings are the v1 contract: a diff here is a wire-format change and
// must not happen within v1 (additive fields excepted).
var golden = []struct {
	name string
	val  any
	json string
}{
	{
		"Error",
		&Error{Code: CodeTenantQuotaExceeded, Message: "job j demands 700 W against tenant acme quota 500 W"},
		`{"code":"tenant_quota_exceeded","message":"job j demands 700 W against tenant acme quota 500 W"}`,
	},
	{
		"WorkloadSpec",
		&WorkloadSpec{Intensity: 8, Vector: "ymm", WaitingPct: 50, Imbalance: 2},
		`{"intensity":8,"vector":"ymm","waiting_pct":50,"imbalance":2}`,
	},
	{
		"WorkloadSpec_zero_optionals",
		&WorkloadSpec{Intensity: 0.25, Vector: "scalar", Imbalance: 1},
		`{"intensity":0.25,"vector":"scalar","imbalance":1}`,
	},
	{
		"SubmitRequest",
		&SubmitRequest{Instance: "main", JobID: "ext00001", Tenant: "acme",
			Workload: WorkloadSpec{Intensity: 8, Vector: "ymm", Imbalance: 1},
			Nodes:    2, Iterations: 5000, AtNs: 60000000000},
		`{"instance":"main","job_id":"ext00001","tenant":"acme","workload":{"intensity":8,"vector":"ymm","imbalance":1},"nodes":2,"iterations":5000,"at_ns":60000000000}`,
	},
	{
		"SubmitResponse",
		&SubmitResponse{JobID: "ext00001", State: "queued", NowNs: 1500000000},
		`{"job_id":"ext00001","state":"queued","now_ns":1500000000}`,
	},
	{
		"JobStatus",
		&JobStatus{ID: "ext00001", Tenant: "acme", State: "running", Nodes: 2,
			Iterations: 5000, Remaining: 1200, SubmittedAtNs: 1000000000,
			StartedAtNs: 2000000000, Preemptions: 1, Resumes: 1},
		`{"id":"ext00001","tenant":"acme","state":"running","nodes":2,"iterations":5000,"remaining":1200,"submitted_at_ns":1000000000,"started_at_ns":2000000000,"preemptions":1,"resumes":1}`,
	},
	{
		"TenantStatus",
		&TenantStatus{Name: "acme", QuotaWatts: 500, CommittedWatts: 470.5},
		`{"name":"acme","quota_watts":500,"committed_watts":470.5}`,
	},
	{
		"TenantQuotaRequest",
		&TenantQuotaRequest{Tenant: "acme", QuotaWatts: 500},
		`{"tenant":"acme","quota_watts":500}`,
	},
	{
		"InstanceStatus",
		&InstanceStatus{Name: "main", State: "running", NowNs: 300000000000,
			HorizonNs: 3600000000000, SpeedupX: 60, BudgetWatts: 2000,
			CommittedWatts: 1400, Nodes: 10, FreeNodes: 4, QueuedJobs: 1,
			RunningJobs: 3, Submitted: 7, Started: 5, Completed: 2, Preempted: 1,
			BudgetChanges:  2,
			Tenants:        []TenantStatus{{Name: "acme", QuotaWatts: 500, CommittedWatts: 470}},
			LastPowerWatts: 1350.25, LastSampleNs: 300000000000},
		`{"name":"main","state":"running","now_ns":300000000000,"horizon_ns":3600000000000,"speedup_x":60,"budget_watts":2000,"committed_watts":1400,"nodes":10,"free_nodes":4,"queued_jobs":1,"running_jobs":3,"submitted":7,"started":5,"completed":2,"preempted":1,"budget_changes":2,"tenants":[{"name":"acme","quota_watts":500,"committed_watts":470}],"last_power_watts":1350.25,"last_sample_ns":300000000000}`,
	},
	{
		"BudgetSwapRequest",
		&BudgetSwapRequest{Instance: "main", BudgetWatts: 1000, AtNs: 600000000000},
		`{"instance":"main","budget_watts":1000,"at_ns":600000000000}`,
	},
	{
		"BudgetSwapResponse",
		&BudgetSwapResponse{BudgetWatts: 1000, AtNs: 600000000000},
		`{"budget_watts":1000,"at_ns":600000000000}`,
	},
	{
		"PolicySwapRequest",
		&PolicySwapRequest{Policy: "mixed-adaptive"},
		`{"policy":"mixed-adaptive"}`,
	},
	{
		"PolicyListResponse",
		&PolicyListResponse{Policies: []string{"adaptive", "static"}, Active: "static"},
		`{"policies":["adaptive","static"],"active":"static"}`,
	},
	{
		"TelemetryFrame",
		&TelemetryFrame{AtNs: 60000000000, PowerWatts: 1875.5, BudgetWatts: 2000,
			Running: 4, Queued: 2, Completed: 9, Preempted: 1},
		`{"at_ns":60000000000,"power_watts":1875.5,"budget_watts":2000,"running":4,"queued":2,"completed":9,"preempted":1}`,
	},
	{
		"EventFrame",
		&EventFrame{Seq: 42, VtNs: 60000000000, Type: "job_preempted",
			Layer: "sim", Scope: "job00007", Value: 900, Aux: 100},
		`{"seq":42,"vt_ns":60000000000,"type":"job_preempted","layer":"sim","scope":"job00007","value":900,"aux":100}`,
	},
}

// TestGoldenRoundTrips pins every wire type's encoding and proves decode
// inverts encode.
func TestGoldenRoundTrips(t *testing.T) {
	for _, g := range golden {
		t.Run(g.name, func(t *testing.T) {
			enc, err := json.Marshal(g.val)
			if err != nil {
				t.Fatal(err)
			}
			if string(enc) != g.json {
				t.Errorf("encoding drifted:\n got  %s\n want %s", enc, g.json)
			}
			back := reflect.New(reflect.TypeOf(g.val).Elem()).Interface()
			if err := json.Unmarshal([]byte(g.json), back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, g.val) {
				t.Errorf("decode did not invert encode:\n got  %+v\n want %+v", back, g.val)
			}
		})
	}
}

// TestUnknownFieldTolerance is the forward-compatibility pin: a v1 client
// must survive additive server changes, so decoding a payload carrying
// fields this version does not know must succeed and fill the known ones.
func TestUnknownFieldTolerance(t *testing.T) {
	payload := `{
		"job_id": "ext00009", "state": "running", "now_ns": 5,
		"added_in_v1_9": {"nested": [1, 2, 3]},
		"another_future_field": "ignored"
	}`
	var resp SubmitResponse
	if err := json.Unmarshal([]byte(payload), &resp); err != nil {
		t.Fatalf("unknown fields broke decoding: %v", err)
	}
	if resp.JobID != "ext00009" || resp.State != "running" || resp.NowNs != 5 {
		t.Errorf("known fields lost next to unknown ones: %+v", resp)
	}

	for _, g := range golden {
		// Splice a future field into every golden payload.
		spliced := `{"future_field_xyz": true,` + g.json[1:]
		back := reflect.New(reflect.TypeOf(g.val).Elem()).Interface()
		if err := json.Unmarshal([]byte(spliced), back); err != nil {
			t.Errorf("%s: unknown field broke decoding: %v", g.name, err)
		}
	}
}
