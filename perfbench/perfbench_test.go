package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkFile is the subset of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmallWorkloads runs the small-size variant of every workload
// through the same code as the full run, untraced and traced, and checks
// that every check passes and every metric BENCHMARK.json names is printed
// with its unit.
func TestSmallWorkloads(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			opt := options{workload: w.Name, seed: 3, seconds: 0.01, trace: trace, small: true, outDir: t.TempDir()}
			res, err := run(context.Background(), opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			f := res.final
			if !f.Correct || f.Failed != 0 || f.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d/%d: %v", w.Name, trace, f.Correct, f.Failed, f.Attempted, res.failures)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(f.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", w.Name, trace, len(f.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := f.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if _, err := json.Marshal(f); err != nil {
				t.Errorf("%s trace=%v: result does not encode: %v", w.Name, trace, err)
			}
		}
	}
}

// TestTracedOutputMatchesUntraced pins that attaching the tracer, the
// policy wrapper and the obs.Sink leaves a small fleet's simulated output
// byte-identical, with the replan fanned out over four workers so wrapped
// Allocate calls arrive concurrently. Run it under -race.
func TestTracedOutputMatchesUntraced(t *testing.T) {
	ctx := context.Background()
	runFleet := func(traced bool) (*unitResult, *allocStats) {
		f := newFleet(options{seed: 5, small: true})
		f.parallelism = 4
		var tr *tracer
		var alloc *allocStats
		if traced {
			tr, alloc = newTracer(), &allocStats{}
		}
		if err := f.setup(ctx, tr, nil, alloc); err != nil {
			t.Fatal(err)
		}
		u, err := f.unit(ctx, tr)
		if err != nil {
			t.Fatal(err)
		}
		if u.failed != 0 {
			t.Fatalf("traced=%v: %v", traced, u.failures)
		}
		return u, alloc
	}
	plain, _ := runFleet(false)
	wrapped, alloc := runFleet(true)
	if plain.digest != wrapped.digest {
		t.Errorf("wrapped policy changed the output: digest %s, unwrapped %s", wrapped.digest, plain.digest)
	}
	if alloc.calls.Load() == 0 || len(alloc.latencies()) != int(alloc.calls.Load()) {
		t.Errorf("wrapper saw %d calls and %d latencies", alloc.calls.Load(), len(alloc.latencies()))
	}
}

// TestSelfTimes checks that a span's self time excludes the union of its
// overlapping children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},
		{ID: 4, Parent: 1, Start: 90, End: 120},
	}
	self := selfTimes(spans)
	if got := self[1]; got != 100-50-10 {
		t.Errorf("self time %d, want 40", got)
	}
	if got := self[2]; got != 30 {
		t.Errorf("leaf self time %d, want 30", got)
	}
}

// TestReferenceRoundTrip checks the reference parser against the committed
// full-scale output: every Figure 7 cell, Figure 8 entry and headline line.
func TestReferenceRoundTrip(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "results_full_scale.txt"))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := parseReference(string(data))
	if err != nil {
		t.Fatal(err)
	}
	// 90 Figure 7 bars, 6 mixes x 4 metrics x 3 budgets x 3 policies of
	// Figure 8, and the two headline lines.
	if want := 90 + 6*4*3*3 + 2; len(ref) != want {
		t.Fatalf("parsed %d entries, want %d", len(ref), want)
	}
	if got := ref["headline/time"]; got != "8.76% ±0.04 HighImbalance/ideal" {
		t.Errorf("headline/time = %q", got)
	}
	if got := ref["fig8/WastefulPower/Time Savings/ideal/MixedAdaptive"]; got != "+5.27%* ±0.02" {
		t.Errorf("figure 8 entry = %q", got)
	}
}
