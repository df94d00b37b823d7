// Package cliconf is the shared command-line surface of the powerstack
// binaries. The facility, campaign, experiments, powerstackd, and
// powerload commands all speak the same dialects — a budget timeline
// ("2h=8 kW,3h=12 kW"), a generated fault plan (-crashes/-msrfaults/...),
// observability artifact dumps (-metrics/-trace/-spans/-events) — and
// this package owns each group once: registration on a FlagSet, parsing,
// and the shared semantics, instead of each main.go growing its own
// drifting copy.
package cliconf

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"powerstack/internal/facility"
	"powerstack/internal/fault"
	"powerstack/internal/obs"
	"powerstack/internal/units"
)

// --- budget group: -budget, -budgetsteps, -emergency, -checkpoint ---

// Budget is the facility budget flag group.
type Budget struct {
	budget string
	steps  string
	// Emergency is the raw -emergency value ("", "preempt", "throttle",
	// "kill"); facility.Config validation rejects anything else.
	Emergency string
	// Checkpoint is the job checkpoint cadence in iterations.
	Checkpoint int
}

// RegisterBudget registers the budget flag group on fs.
func RegisterBudget(fs *flag.FlagSet, defaultCheckpoint int) *Budget {
	b := &Budget{}
	fs.StringVar(&b.budget, "budget", "", "system power budget (e.g. \"12 kW\"; default 200 W/node)")
	fs.StringVar(&b.steps, "budgetsteps", "", "scheduled budget timeline: comma-separated offset=power pairs (e.g. \"2h=8 kW,3h=12 kW\")")
	fs.StringVar(&b.Emergency, "emergency", "", "budget-emergency response: preempt (default), throttle, or kill")
	fs.IntVar(&b.Checkpoint, "checkpoint", defaultCheckpoint, "job checkpoint cadence in iterations (0 disables)")
	return b
}

// Power resolves -budget, falling back when the flag was not given.
func (b *Budget) Power(fallback units.Power) (units.Power, error) {
	if b.budget == "" {
		return fallback, nil
	}
	return units.ParsePower(b.budget)
}

// Steps parses the -budgetsteps timeline.
func (b *Budget) Steps() ([]facility.BudgetStep, error) {
	return ParseBudgetSteps(b.steps)
}

// ParseBudgetSteps parses a comma-separated "offset=power" timeline, e.g.
// "2h=8 kW,3h=12 kW": at 2h the budget steps to 8 kW, at 3h back to
// 12 kW. Empty input is an empty timeline.
func ParseBudgetSteps(s string) ([]facility.BudgetStep, error) {
	if s == "" {
		return nil, nil
	}
	var out []facility.BudgetStep
	for _, part := range strings.Split(s, ",") {
		at, power, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("budget step %q: want offset=power", part)
		}
		d, err := time.ParseDuration(strings.TrimSpace(at))
		if err != nil {
			return nil, fmt.Errorf("budget step %q: %w", part, err)
		}
		p, err := units.ParsePower(strings.TrimSpace(power))
		if err != nil {
			return nil, fmt.Errorf("budget step %q: %w", part, err)
		}
		out = append(out, facility.BudgetStep{At: d, Budget: p})
	}
	return out, nil
}

// --- fault group: -crashes, -msrfaults, -dropouts, -slownodes,
//     -budgetdrops, -faultseed ---

// Faults is the generated-fault-plan flag group.
type Faults struct {
	Crashes     int
	MSRFaults   int
	Dropouts    int
	SlowNodes   int
	BudgetDrops int
	Seed        uint64
}

// RegisterFaults registers the fault flag group on fs.
func RegisterFaults(fs *flag.FlagSet) *Faults {
	f := &Faults{}
	fs.IntVar(&f.Crashes, "crashes", 0, "nodes to crash mid-run (half are repaired)")
	fs.IntVar(&f.MSRFaults, "msrfaults", 0, "nodes with injected MSR write faults")
	fs.IntVar(&f.Dropouts, "dropouts", 0, "nodes with injected telemetry dropouts")
	fs.IntVar(&f.SlowNodes, "slownodes", 0, "nodes degraded mid-run")
	fs.IntVar(&f.BudgetDrops, "budgetdrops", 0, "randomized demand-response budget drops in the fault plan")
	fs.Uint64Var(&f.Seed, "faultseed", 7, "seed of the generated fault plan")
	return f
}

// Any reports whether the group requests any injections.
func (f *Faults) Any() bool {
	return f.Crashes+f.MSRFaults+f.Dropouts+f.SlowNodes+f.BudgetDrops > 0
}

// Plan generates the deterministic fault plan over the given nodes, nil
// when the group is empty. Crashed nodes heal at the generator's default
// half fraction.
func (f *Faults) Plan(nodeIDs []string, horizon time.Duration) *fault.Plan {
	if !f.Any() {
		return nil
	}
	return fault.Generate(nodeIDs, fault.GenOptions{
		Seed:           f.Seed,
		Crashes:        f.Crashes,
		RepairFraction: 0.5,
		MSRWriteFaults: f.MSRFaults,
		SlowNodes:      f.SlowNodes,
		Dropouts:       f.Dropouts,
		BudgetDrops:    f.BudgetDrops,
		Horizon:        horizon,
	})
}

// String summarizes the group for startup logs.
func (f *Faults) String() string {
	return fmt.Sprintf("%d crashes, %d MSR write faults, %d telemetry dropouts, %d slow nodes, %d budget drops (seed %d)",
		f.Crashes, f.MSRFaults, f.Dropouts, f.SlowNodes, f.BudgetDrops, f.Seed)
}

// --- obs artifact group: -metrics, -trace, -spans, -events ---

// Artifacts is the observability artifact flag group. Each path dumps one
// artifact after the run; "-" selects stdout, "" skips.
type Artifacts struct {
	Metrics string
	Trace   string
	Spans   string
	Events  string
}

// RegisterArtifacts registers the artifact flag group on fs.
func RegisterArtifacts(fs *flag.FlagSet) *Artifacts {
	a := &Artifacts{}
	fs.StringVar(&a.Metrics, "metrics", "", "write a Prometheus metrics snapshot here (- = stdout)")
	fs.StringVar(&a.Trace, "trace", "", "write a virtual-time Chrome trace JSON here (- = stdout)")
	fs.StringVar(&a.Spans, "spans", "", "write the span log JSONL here (- = stdout)")
	fs.StringVar(&a.Events, "events", "", "write the decision-event journal JSON here (- = stdout)")
	return a
}

// Enabled reports whether any artifact was requested — the usual gate for
// enabling observability before a run.
func (a *Artifacts) Enabled() bool {
	return a.Metrics != "" || a.Trace != "" || a.Spans != "" || a.Events != ""
}

// Dump writes every requested artifact from sink.
func (a *Artifacts) Dump(sink *obs.Sink) error {
	if err := writeArtifact(a.Metrics, "metrics snapshot", sink.WritePrometheus); err != nil {
		return err
	}
	if err := writeArtifact(a.Trace, "Chrome trace", sink.WriteTrace); err != nil {
		return err
	}
	if err := writeArtifact(a.Spans, "span log", sink.WriteSpans); err != nil {
		return err
	}
	return writeArtifact(a.Events, "event journal", sink.Journal.WriteJSON)
}

// DumpDir writes the directory-shaped artifact set (metrics.txt and
// trace.json, the cmd/experiments -obsdir convention) into dir.
func DumpDir(sink *obs.Sink, dir string) error {
	if err := writeArtifact(filepath.Join(dir, "metrics.txt"), "metrics snapshot", sink.WritePrometheus); err != nil {
		return err
	}
	return writeArtifact(filepath.Join(dir, "trace.json"), "Chrome trace", sink.WriteTrace)
}

// writeArtifact writes one artifact, treating "-" as stdout and "" as
// skip.
func writeArtifact(path, what string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		fmt.Printf("--- %s ---\n", what)
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close() //nolint:errcheck // write error takes precedence
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Printf("wrote %s to %s", what, path)
	return nil
}
