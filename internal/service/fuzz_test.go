package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
	"unicode"

	apiv1 "powerstack/api/v1"
	"powerstack/internal/charz"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/facility"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/policy"
	"powerstack/internal/units"
)

// fuzzRoutes are the mutating endpoints FuzzServiceRequests drives.
var fuzzRoutes = []string{"/v1/submit", "/v1/budget", "/v1/tenants", "/v1/policy"}

// fuzzReads are the read-only routes FuzzServiceRequests checks after
// every POST; jobPath adds /v1/jobs/{id} for a token of the fuzzed body.
var fuzzReads = []string{"/v1/instances/main", "/v1/jobs", "/v1/tenants"}

// jobPath returns the /v1/jobs/{id} path for the last token of body, split
// at JSON punctuation and whitespace — a submission's trailing job_id value,
// say. The token is URL-escaped, dots included, so path cleaning cannot
// rewrite a "." or ".." segment.
func jobPath(body string) string {
	fields := strings.FieldsFunc(body, func(r rune) bool {
		return unicode.IsSpace(r) || strings.ContainsRune(`{}[]":,`, r)
	})
	var id string
	if n := len(fields); n > 0 {
		id = fields[n-1]
	}
	return "/v1/jobs/" + strings.ReplaceAll(url.PathEscape(id), ".", "%2E")
}

// checkContract fails unless rec is a 200 or a refusal whose body carries a
// stable apiv1 code with its mapped status.
func checkContract(t *testing.T, req string, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code == http.StatusOK {
		return
	}
	var apiErr apiv1.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil {
		t.Fatalf("%s: status %d with undecodable body %q", req, rec.Code, rec.Body.String())
	}
	if want, ok := fuzzCodeStatus[apiErr.Code]; !ok || want != rec.Code {
		t.Fatalf("%s: status %d code %q (%s), outside the error contract", req, rec.Code, apiErr.Code, apiErr.Message)
	}
}

// fuzzCodeStatus is the error contract a fuzzed request may hit: every
// stable apiv1 code a malformed or refused request can earn, with its HTTP
// status. CodeInternal is deliberately absent — no client body may surface
// as an internal error.
var fuzzCodeStatus = map[string]int{
	apiv1.CodeBadRequest:          http.StatusBadRequest,
	apiv1.CodeNotFound:            http.StatusNotFound,
	apiv1.CodeTenantQuotaExceeded: http.StatusUnprocessableEntity,
	apiv1.CodeBudgetInfeasible:    http.StatusUnprocessableEntity,
	apiv1.CodeNotCharacterized:    http.StatusUnprocessableEntity,
	apiv1.CodeInsufficientNodes:   http.StatusUnprocessableEntity,
	apiv1.CodeDuplicateJob:        http.StatusConflict,
}

// fuzzWorld characterizes one workload once and returns the facility
// template plus the source pool each fuzz input clones its 8 nodes from.
func fuzzWorld(f *testing.F) (facility.Config, []*node.Node) {
	f.Helper()
	c, err := cluster.New(12, cpumodel.Quartz(), cpumodel.QuartzVariation(), 41)
	if err != nil {
		f.Fatal(err)
	}
	workloads := []kernel.Config{{Intensity: 8, Vector: kernel.YMM, Imbalance: 1}}
	db, err := charz.CharacterizeAll(context.Background(), workloads, c.Nodes()[8:], charz.Options{
		MonitorIters: 5, BalancerIters: 30, Seed: 3, NoiseSigma: 0,
	})
	if err != nil {
		f.Fatal(err)
	}
	return facility.Config{
		DB:              db,
		Policy:          policy.MixedAdaptive{},
		SystemBudget:    8 * 200 * units.Watt,
		CheckpointEvery: 50,
		DisableArrivals: true,
		Duration:        1000 * time.Hour,
		Tick:            30 * time.Second,
		Seed:            5,
	}, c.Nodes()[:8]
}

// FuzzServiceRequests drives random request sequences through the /v1
// mutating endpoints of a hosted 8-node instance. Each newline-separated
// line of bodies is one POST, routed by the matching byte of routes. After
// every request: the handler did not panic, the status is 200 or a mapped
// refusal, a refusal body carries its stable apiv1 code, the GET routes
// /v1/instances/main, /v1/jobs, /v1/tenants and /v1/jobs/{id} (id a token
// of the body) answer under the same contract, and stepping the instance
// one quantum under a 2 s deadline returns and advances virtual time — no
// accepted input may wedge the instance.
func FuzzServiceRequests(f *testing.F) {
	base, src := fuzzWorld(f)
	// Seeds: the oversized submission that once livelocked the instance,
	// valid requests on every route, and malformed ones.
	f.Add([]byte{0}, `{"workload":{"intensity":8,"vector":"ymm","imbalance":1},"nodes":2,"iterations":1125899906842624}`)
	f.Add([]byte{0, 0}, `{"workload":{"intensity":8,"vector":"ymm"},"nodes":2,"iterations":5000}`+"\n"+
		`{"workload":{"intensity":8,"vector":"ymm"},"nodes":4,"iterations":200,"at_ns":60000000000}`)
	f.Add([]byte{0, 1, 0}, `{"workload":{"intensity":8,"vector":"ymm"},"nodes":8,"iterations":9000,"job_id":"j"}`+"\n"+
		`{"budget_watts":1}`+"\n"+`{"workload":{"intensity":8,"vector":"ymm"},"nodes":2,"iterations":10,"job_id":"j"}`)
	f.Add([]byte{2, 0}, `{"tenant":"acme","quota_watts":100}`+"\n"+
		`{"tenant":"acme","workload":{"intensity":8,"vector":"ymm"},"nodes":2,"iterations":10}`)
	f.Add([]byte{3}, `{"policy":"mixed-adaptive"}`)
	f.Add([]byte{0, 0, 0}, `{"workload":{"intensity":8,"vector":"avx512"},"nodes":2,"iterations":1}`+"\n"+
		`{"workload":{"intensity":8,"vector":"ymm"},"nodes":0,"iterations":-1}`+"\n"+`{"instance":"nope"}`)
	f.Add([]byte{1, 2, 3}, `{"budget_watts":-5,"at_ns":-1}`+"\n"+`{"quota_watts":-1}`+"\n"+`not json`)

	f.Fuzz(func(t *testing.T, routes []byte, bodies string) {
		if len(routes) == 0 {
			routes = []byte{0}
		}
		lines := strings.Split(bodies, "\n")
		if len(lines) > 8 {
			lines = lines[:8]
		}
		cfg := base
		cfg.Nodes = cluster.ClonePool(src)
		h := NewHost(nil)
		// A pacer beat once per virtual quantum at 1e-6 speedup is one beat
		// per year of wall time: the test steps the instance itself.
		if err := h.Add(InstanceConfig{Name: "main", Facility: cfg, Speedup: 1e-6}); err != nil {
			t.Fatal(err)
		}
		defer h.Shutdown(context.Background()) //nolint:errcheck
		hi, err := h.hosted("main")
		if err != nil {
			t.Fatal(err)
		}
		handler := h.Handler()
		for i, body := range lines {
			route := fuzzRoutes[int(routes[i%len(routes)])%len(fuzzRoutes)]
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, strings.NewReader(body)))
			checkContract(t, fmt.Sprintf("POST %s %q", route, body), rec)
			for _, path := range append(fuzzReads, jobPath(body)) {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				checkContract(t, fmt.Sprintf("after POST %s %q: GET %s", route, body, path), rec)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			hi.mu.Lock()
			before := hi.in.Now()
			err := hi.in.Step(ctx, before+hi.quantum)
			after := hi.in.Now()
			hi.mu.Unlock()
			cancel()
			if err != nil {
				t.Fatalf("after POST %s %q: stepping one quantum: %v", route, body, err)
			}
			if after <= before {
				t.Fatalf("after POST %s %q: virtual time stuck at %v", route, body, after)
			}
		}
	})
}

// cancelOnFlush records a response and cancels the request once the
// handler flushes its first frame, so a streaming handler ends after one.
type cancelOnFlush struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
}

func (c cancelOnFlush) Flush() {
	c.ResponseRecorder.Flush()
	c.cancel()
}

// FuzzStreamRoutes opens the two /v1 SSE routes, /v1/stream/telemetry and
// /v1/stream/events, through Host.Handler with a fuzzed query string
// (instance name, interval, anything else) against a hosted 8-node
// instance, and cancels each request after its first frame. Neither route
// may panic. A refusal (an unknown instance, say) answers the /v1 error
// contract; an opened stream's first frame is well-formed: the events feed
// greets with its hello frame, and the telemetry feed's first frame — its
// greeting — is one TelemetryFrame whose JSON decodes with no unknown
// field.
func FuzzStreamRoutes(f *testing.F) {
	base, src := fuzzWorld(f)
	cfg := base
	cfg.Nodes = cluster.ClonePool(src)
	h := NewHost(obs.New())
	if err := h.Add(InstanceConfig{Name: "main", Facility: cfg, Speedup: 1e-6}); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { h.Shutdown(context.Background()) }) //nolint:errcheck
	handler := h.Handler()
	f.Add("")
	f.Add("instance=main&interval=1h")
	f.Add("interval=-5s")
	f.Add("instance=nope")
	f.Add("interval=9999999h&instance=main&buffer=-1")
	f.Add("instance=%zz;interval")

	f.Fuzz(func(t *testing.T, query string) {
		for _, path := range []string{"/v1/stream/telemetry", "/v1/stream/events"} {
			ctx, cancel := context.WithCancel(context.Background())
			req := (&http.Request{
				Method: http.MethodGet,
				URL:    &url.URL{Path: path, RawQuery: query},
				Header: http.Header{},
			}).WithContext(ctx)
			rec := cancelOnFlush{httptest.NewRecorder(), cancel}
			done := make(chan struct{})
			go func() {
				defer close(done)
				handler.ServeHTTP(rec, req)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("GET %s?%s: still streaming after its first frame", path, query)
			}
			cancel()
			label := fmt.Sprintf("GET %s?%q", path, query)
			if rec.Header().Get("Content-Type") != "text/event-stream" {
				checkContract(t, label, rec.ResponseRecorder)
				continue
			}
			first, _, ok := strings.Cut(rec.Body.String(), "\n\n")
			if !ok {
				t.Fatalf("%s: no complete first frame in %q", label, rec.Body.String())
			}
			if path == "/v1/stream/events" {
				if first != "event: hello\ndata: {}" {
					t.Fatalf("%s: first frame %q, want the hello frame", label, first)
				}
				continue
			}
			data, ok := strings.CutPrefix(first, "data: ")
			if !ok || strings.Contains(data, "\n") {
				t.Fatalf("%s: first frame %q is not one data line", label, first)
			}
			dec := json.NewDecoder(strings.NewReader(data))
			dec.DisallowUnknownFields()
			var frame apiv1.TelemetryFrame
			if err := dec.Decode(&frame); err != nil {
				t.Fatalf("%s: first frame %q: %v", label, first, err)
			}
		}
	})
}
