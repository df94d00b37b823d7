package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerstack/internal/facility"
	"powerstack/internal/obs"
)

// TestTracingByteIdentical is the observability half of the determinism
// contract: a campaign with a live sink, spans, and the flight recorder
// enabled must serialize a report byte-identical to the same campaign on a
// nil sink — telemetry never feeds the Report. The emergency axis makes
// two of every three scenarios share a run; each still gets its own span
// and flight artifact.
func TestTracingByteIdentical(t *testing.T) {
	const nodes = 6
	cfg := testConfig(nodes)
	cfg.Emergencies = allResponses
	cfg.Parallelism = 1
	bare, err := testRunner(t, nodes).Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	traced := testRunner(t, nodes)
	traced.Obs = obs.New()
	cfg.Parallelism = 4
	cfg.FlightDir = t.TempDir()
	cfg.Anomalous = func(*facility.Result) bool { return true }
	got, err := traced.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(mustJSON(t, bare), mustJSON(t, got)) {
		t.Fatal("report changed when tracing and flight recording were enabled")
	}

	// Spans were recorded: one campaign root plus one span per scenario,
	// and one facility run per distinct run.
	scen := len(cfg.scenarios())
	if total := traced.Obs.Spans.Total(); total < uint64(scen)+1 {
		t.Errorf("spans recorded = %d, want >= %d", total, scen+1)
	}
	if got := spanCount(traced.Obs, "scenario"); got != scen {
		t.Errorf("scenario spans = %d, want %d", got, scen)
	}
	if got, want := spanCount(traced.Obs, "facility_run"), scen/len(allResponses); got != want {
		t.Errorf("facility runs = %d, want %d", got, want)
	}

	// Every scenario was flagged anomalous, so every scenario wrote a
	// parseable flight artifact.
	entries, err := os.ReadDir(cfg.FlightDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != scen {
		t.Fatalf("flight artifacts = %d, want %d", len(entries), scen)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), "-anomalous.json") {
			t.Errorf("unexpected artifact name %q", e.Name())
		}
		fr, err := obs.ReadFlightFile(filepath.Join(cfg.FlightDir, e.Name()))
		if err != nil {
			t.Fatalf("artifact %s unreadable: %v", e.Name(), err)
		}
		if fr.Reason != "anomalous" || fr.Scenario == "" || len(fr.Config) == 0 || len(fr.Result) == 0 {
			t.Errorf("artifact %s incomplete: %+v", e.Name(), fr)
		}
	}
}
