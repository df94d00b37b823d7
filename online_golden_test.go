package powerstack

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"powerstack/internal/fault"
	"powerstack/internal/obs"
	"powerstack/internal/workload"
)

// journalText renders a sink's decision journal without its wall-clock
// fields: the event time and a cell's measured duration.
func journalText(s *obs.Sink) string {
	var b strings.Builder
	for _, e := range s.Journal.Snapshot() {
		e.Time = 0
		if e.Type == obs.EvCell {
			e.Value = 0
		}
		fmt.Fprintf(&b, "%+v\n", e)
	}
	return b.String()
}

// TestOnlineGolden freezes the execution-time protocol byte for byte: the
// online cell at every Table III budget level of a 36-node WastefulPower,
// and System.Coordinate under a request-dropout plan that exercises both
// the grant hold and the redistribution past the hold horizon. Each digest
// covers the result values and the decision journal.
func TestOnlineGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s may fuse floating-point operations", runtime.GOARCH)
	}
	ctx := context.Background()
	sys, err := NewSystem(Options{ClusterSize: 40, Seed: 5, CharNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.WastefulPower().Scaled(36)
	if err := sys.CharacterizeMixes(ctx, []Mix{mix}, QuickCharacterization()); err != nil {
		t.Fatal(err)
	}
	budgets, err := workload.SelectBudgets(mix, sys.DB)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(values string, s *obs.Sink) string {
		return fmt.Sprintf("%x", sha256.Sum256([]byte(values+journalText(s))))
	}

	got := map[string]string{}
	for _, lvl := range budgets.Levels() {
		r := sys.runner(RunnerOptions{Iters: 30})
		r.Obs = obs.New()
		cell, err := r.RunOnlineCell(ctx, mix, lvl.Name, lvl.Power)
		if err != nil {
			t.Fatal(err)
		}
		got["online "+lvl.Name] = digest(fmt.Sprintf("%+v", cell), r.Obs)
	}

	sys.Obs = obs.New()
	sys.Faults = fault.NewPlan(
		fault.Injection{Kind: fault.RequestDropout, Job: mix.Jobs[0].ID, Round: 4, Count: 6},
		fault.Injection{Kind: fault.RequestDropout, Job: mix.Jobs[5].ID, Round: 10, Count: 2},
	)
	res, err := sys.Coordinate(ctx, mix, budgets.Ideal, 30)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Obs.Metrics.Counter(obs.MetricRequestHolds, "job", mix.Jobs[0].ID).Value() == 0 {
		t.Fatal("the dropout plan held no request")
	}
	got["coordinate dropout"] = digest(fmt.Sprintf("%+v", res), sys.Obs)

	want := map[string]string{
		"online min":         "62c56a8f43bd4ad122da0eea1e789e0c4ceba22a0df5dabd43dca9db81da9630",
		"online ideal":       "c341d5927454771ff0902da66d52ba0d8fb269a342ad3ec670040d2cbe90285d",
		"online max":         "fb769e0d642839c78bcfb9e82c062c37ac320825d3c8817547d6804edf1ffb79",
		"coordinate dropout": "3016d6ef09e57ee0307698f2cabc537217503ac7d8eb54d00b4de8887bd47512",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digest %s, want %s", name, got[name], w)
		}
	}
}
