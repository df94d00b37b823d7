package main

import (
	"runtime"
	"time"

	"powerstack/internal/fault"
	"powerstack/internal/obs"
)

// metricDef names one reported metric and its unit. The lists below are the
// ones BENCHMARK.json declares; the tests keep the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput", "work/s"},
	{"peak_rss_mb", "MB"},
	{"success_rate", "ratio"},
}

// engineKinds are the event kinds the facility's event core dispatches.
var engineKinds = []string{"arrival", "inject", "completion", "sample", "budget", "replan", "fault_crash", "fault_repair", "fault_slow"}

// faultKinds are the fault classes a fault plan can inject.
var faultKinds = []fault.Kind{
	fault.MSRWriteFault, fault.MSRReadFault, fault.NodeCrash, fault.NodeRepair, fault.SlowNode,
	fault.TelemetryDropout, fault.RequestDropout, fault.CharzCorruption, fault.BudgetDrop,
}

// perLayer are the metrics the traced run prints: the layer metrics plus
// the host context and the exact simulated statistics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"cluster.build_s", "s"},
		{"charz.characterize_s", "s"},
		{"charz.cache_hits", "count"},
		{"charz.cache_misses", "count"},
		{"facility.instance_setup_s", "s"},
		{"facility.steps", "count"},
		{"facility.step_p50_ms", "ms"},
		{"facility.step_p90_ms", "ms"},
		{"facility.step_self_s", "s"},
		{"facility.inject_p50_us", "us"},
		{"facility.snapshot_p50_us", "us"},
		{"facility.events", "count"},
		{"facility.us_per_event", "us"},
	}
	for _, k := range engineKinds {
		defs = append(defs, metricDef{"engine.events." + k, "count"})
	}
	defs = append(defs,
		metricDef{"policy.allocate_calls", "count"},
		metricDef{"policy.allocate_busy_s", "s"},
		metricDef{"policy.allocate_p90_us", "us"},
		metricDef{"coordinator.replans", "count"},
		metricDef{"coordinator.replan_p50_ms", "ms"},
		metricDef{"coordinator.replan_p90_ms", "ms"},
		metricDef{"coordinator.hier_fallbacks", "count"},
		metricDef{"rm.limit_writes", "count"},
		metricDef{"rm.msr_writes", "count"},
		metricDef{"rm.cap_retries", "count"},
		metricDef{"rm.cap_write_success_ratio", "ratio"},
		metricDef{"rm.quarantines", "count"},
		metricDef{"rm.requeues", "count"},
		metricDef{"rm.preemptions", "count"},
		metricDef{"rm.kills", "count"},
		metricDef{"rm.resumes", "count"},
		metricDef{"rm.rejects", "count"},
		metricDef{"telemetry.samples", "count"},
		metricDef{"telemetry.holds", "count"},
		metricDef{"sim.cells", "count"},
		metricDef{"sim.cell_p50_ms", "ms"},
		metricDef{"sim.cell_p90_ms", "ms"},
		metricDef{"sim.worker_idle_frac", "ratio"},
		metricDef{"sim.headline_time_pct", "%"},
		metricDef{"sim.headline_energy_pct", "%"},
		metricDef{"sim.headline_time_err_pct", "%"},
		metricDef{"sim.headline_energy_err_pct", "%"},
		metricDef{"geopm.iterations", "count"},
		metricDef{"geopm.reallocs", "count"},
		metricDef{"geopm.moved_watts", "W"},
		metricDef{"campaign.scenarios", "count"},
		metricDef{"campaign.scenario_p50_ms", "ms"},
		metricDef{"campaign.scenario_p90_ms", "ms"},
		metricDef{"campaign.worker_idle_frac", "ratio"},
	)
	for _, k := range faultKinds {
		defs = append(defs, metricDef{"fault.injected." + string(k), "count"})
	}
	return append(defs,
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.mallocs", "count"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"obs.trace_overhead_pct", "%"},
		metricDef{"obs.spans", "count"},
		metricDef{"host.num_cpu", "count"},
		metricDef{"host.gomaxprocs", "count"},
		metricDef{"host.workers", "count"},
		metricDef{"facility.completed", "count"},
		metricDef{"facility.energy_mj", "MJ"},
		metricDef{"facility.busy_node_frac", "ratio"},
		metricDef{"error_rate", "ratio"},
	)
}()

// layerInput is everything the traced run gathered.
type layerInput struct {
	spans    []span
	sink     *obs.Sink
	alloc    *allocStats
	finished *doneTimes
	workers  int
	// base is the untraced unit, traced the same unit with tracing on;
	// mem0/mem1 bracket the untraced unit.
	base, traced *unitResult
	mem0, mem1   runtime.MemStats
}

// layerMetrics computes every per-layer metric. Metrics a workload never
// reaches read 0.
func layerMetrics(in layerInput) (map[string]float64, error) {
	c, err := readCounters(in.sink)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	spanSum := func(names ...string) float64 {
		t := 0.0
		for _, n := range names {
			t += sum(durations(byName(in.spans, n)))
		}
		return t
	}
	self := selfTimes(in.spans)

	m["cluster.build_s"] = spanSum("cluster.new", "cluster.medium")
	m["charz.characterize_s"] = spanSum("charz.characterize")
	m["charz.cache_hits"] = c.total(obs.MetricCharzCacheHits)
	m["charz.cache_misses"] = c.total(obs.MetricCharzCacheMisses)

	m["facility.instance_setup_s"] = spanSum("facility.new_instance", "facility.start")
	steps := byName(in.spans, "facility.step")
	stepDur := durations(steps)
	m["facility.steps"] = float64(len(steps))
	m["facility.step_p50_ms"] = 1e3 * quantile(stepDur, 0.5)
	m["facility.step_p90_ms"] = 1e3 * quantile(stepDur, 0.9)
	for _, s := range steps {
		m["facility.step_self_s"] += self[s.ID].Seconds()
	}
	m["facility.inject_p50_us"] = 1e6 * quantile(durations(byName(in.spans, "facility.inject")), 0.5)
	m["facility.snapshot_p50_us"] = 1e6 * quantile(durations(byName(in.spans, "facility.snapshot")), 0.5)
	events := c.total(obs.MetricEngineEvents)
	m["facility.events"] = events
	if events > 0 {
		// Host time per simulated event, over the calls that dispatch
		// events: Step on a live instance, Run on a campaign.
		host := sum(stepDur)
		if len(steps) == 0 {
			host = spanSum("campaign.run")
		}
		m["facility.us_per_event"] = 1e6 * host / events
	}
	for _, k := range engineKinds {
		m["engine.events."+k] = c.labeled(obs.MetricEngineEvents, "kind", k)
	}

	m["policy.allocate_calls"] = float64(in.alloc.calls.Load())
	m["policy.allocate_busy_s"] = time.Duration(in.alloc.busy.Load()).Seconds()
	m["policy.allocate_p90_us"] = 1e6 * quantile(in.alloc.latencies(), 0.9)

	replans := in.sink.Metrics.Histogram(obs.MetricReplanSeconds, obs.LatencySecondsBuckets)
	m["coordinator.replans"] = float64(replans.Count())
	m["coordinator.replan_p50_ms"] = 1e3 * histQuantile(in.sink, obs.MetricReplanSeconds, obs.LatencySecondsBuckets, 0.5)
	m["coordinator.replan_p90_ms"] = 1e3 * histQuantile(in.sink, obs.MetricReplanSeconds, obs.LatencySecondsBuckets, 0.9)
	m["coordinator.hier_fallbacks"] = c.total(obs.MetricHierFallbacks)

	writes, retries := c.total(obs.MetricLimitWrites), c.total(obs.MetricCapRetries)
	m["rm.limit_writes"] = writes
	m["rm.msr_writes"] = c.total(obs.MetricMSRWrites)
	m["rm.cap_retries"] = retries
	if writes+retries > 0 {
		m["rm.cap_write_success_ratio"] = writes / (writes + retries)
	}
	m["rm.quarantines"] = c.total(obs.MetricQuarantines)
	m["rm.requeues"] = c.total(obs.MetricRequeues)
	m["rm.preemptions"] = c.total(obs.MetricPreemptions)
	m["rm.kills"] = c.total(obs.MetricJobKills)
	m["rm.resumes"] = c.total(obs.MetricResumes)
	m["rm.rejects"] = c.total(obs.MetricInfeasibleRejects)
	m["telemetry.samples"] = c.labeled(obs.MetricEngineEvents, "kind", "sample")
	m["telemetry.holds"] = c.total(obs.MetricTelemetryHolds)

	cells := in.finished.cells
	m["sim.cells"] = c.total(obs.MetricCells)
	m["sim.cell_p50_ms"] = 1e3 * quantile(cells, 0.5)
	m["sim.cell_p90_ms"] = 1e3 * quantile(cells, 0.9)
	if wall := spanSum("sim.run"); wall > 0 {
		m["sim.worker_idle_frac"] = 1 - sum(cells)/(float64(in.workers)*wall)
	}
	m["geopm.iterations"] = c.total(obs.MetricIterations)
	m["geopm.reallocs"] = c.total(obs.MetricReallocs)
	m["geopm.moved_watts"] = c.total(obs.MetricReallocWatts)

	scen := in.finished.scenarios
	m["campaign.scenarios"] = c.total(obs.MetricCampaignScenarios)
	m["campaign.scenario_p50_ms"] = 1e3 * quantile(scen, 0.5)
	m["campaign.scenario_p90_ms"] = 1e3 * quantile(scen, 0.9)
	if wall := spanSum("campaign.run"); wall > 0 {
		m["campaign.worker_idle_frac"] = 1 - sum(scen)/(float64(in.workers)*wall)
	}
	for _, k := range faultKinds {
		m["fault.injected."+string(k)] = c.labeled(obs.MetricFaults, "kind", string(k))
	}

	m["runtime.alloc_mb"] = float64(in.mem1.TotalAlloc-in.mem0.TotalAlloc) / 1e6
	m["runtime.mallocs"] = float64(in.mem1.Mallocs - in.mem0.Mallocs)
	m["runtime.gc_cycles"] = float64(in.mem1.NumGC - in.mem0.NumGC)
	m["runtime.gc_pause_ms"] = float64(in.mem1.PauseTotalNs-in.mem0.PauseTotalNs) / 1e6
	if in.base.spent.wall > 0 {
		m["obs.trace_overhead_pct"] = 100 * (in.traced.spent.wall.Seconds()/in.base.spent.wall.Seconds() - 1)
	}
	m["obs.spans"] = float64(len(in.spans))
	m["host.num_cpu"] = float64(runtime.NumCPU())
	m["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["host.workers"] = float64(in.workers)

	for k, v := range in.traced.layer {
		m[k] = v
	}
	if in.traced.attempted > 0 {
		m["error_rate"] = float64(in.traced.failed) / float64(in.traced.attempted)
	}
	for k, v := range m {
		m[k] = finite(v)
	}
	return m, nil
}
