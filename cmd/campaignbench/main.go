// Command campaignbench measures the campaign engine against the naive
// multi-run flow it replaces and writes BENCH_campaign.json.
//
// The baseline models how multi-seed sweeps ran before the campaign engine
// existed: one facility invocation per scenario, each paying a fresh clone
// pool and a full re-characterization of the workload set (the cmd/facility
// flow in a shell loop). The engine runs the same 64-scenario matrix through
// campaign.Runner: characterization happens once through the singleflight
// cache, each worker resets one clone pool in place between scenarios
// (cluster.PoolState), and the report is checked byte-identical across
// -parallel settings before any speedup is reported.
//
// The host section records GOMAXPROCS and CPU count so single-core hosts —
// where raw parallel scaling is impossible and the speedup comes entirely
// from the cache, in-place pool resets, and hot-path work — are
// distinguishable from multi-core runs.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"log"
	"math/rand/v2"
	"os"
	"runtime"
	"testing"
	"time"

	"powerstack/internal/bsp"
	"powerstack/internal/campaign"
	"powerstack/internal/charz"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/facility"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
	"powerstack/internal/policy"
	"powerstack/internal/stats"
	"powerstack/internal/units"
)

const benchNodes = 6

func benchWorkloads() []kernel.Config {
	return []kernel.Config{
		{Intensity: 0.25, Vector: kernel.YMM, Imbalance: 1},
		{Intensity: 8, Vector: kernel.YMM, Imbalance: 1},
		{Intensity: 32, Vector: kernel.YMM, Imbalance: 1},
		{Intensity: 1, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 2},
		{Intensity: 16, Vector: kernel.YMM, WaitingPct: 75, Imbalance: 3},
		{Intensity: 8, Vector: kernel.XMM, Imbalance: 1},
	}
}

func benchCampaignConfig() campaign.Config {
	return campaign.Config{
		Base: facility.Config{
			MinJobIterations: 500,
			MaxJobIterations: 2000,
			JobSizes:         []int{2, 4},
			Workloads:        benchWorkloads(),
			Duration:         2 * time.Hour,
			Tick:             time.Minute,
		},
		Seeds:         []uint64{1, 2, 3, 4, 5, 6, 7, 8},
		Interarrivals: []time.Duration{15 * time.Minute, 30 * time.Minute},
		Budgets:       []units.Power{benchNodes * 200, benchNodes * 240},
		Policies:      []policy.Policy{policy.StaticCaps{}, policy.MixedAdaptive{}},
	}
}

type hotPath struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type engineRun struct {
	Parallel           int     `json:"parallel"`
	Seconds            float64 `json:"seconds"`
	TotalSeconds       float64 `json:"total_seconds"`
	ScenariosPerSecond float64 `json:"scenarios_per_second"`
	SpeedupVsBaseline  float64 `json:"speedup_vs_baseline"`
}

type benchOutput struct {
	GeneratedBy string `json:"generated_by"`
	Host        struct {
		GOMAXPROCS int `json:"gomaxprocs"`
		NumCPU     int `json:"num_cpu"`
	} `json:"host"`
	Matrix struct {
		Scenarios     int `json:"scenarios"`
		Seeds         int `json:"seeds"`
		Interarrivals int `json:"interarrivals"`
		Budgets       int `json:"budgets"`
		Policies      int `json:"policies"`
		Nodes         int `json:"nodes"`
	} `json:"matrix"`
	Baseline struct {
		Mode               string  `json:"mode"`
		Seconds            float64 `json:"seconds"`
		ScenariosPerSecond float64 `json:"scenarios_per_second"`
	} `json:"baseline"`
	Engine               []engineRun `json:"engine"`
	ByteIdentical        bool        `json:"byte_identical"`
	MatchesNaiveBaseline bool        `json:"matches_naive_baseline"`
	Cache                struct {
		ColdSeconds float64 `json:"cold_seconds"`
		WarmSeconds float64 `json:"warm_seconds"`
		Speedup     float64 `json:"speedup"`
	} `json:"cache"`
	// Pool times the two ways a scenario can get a pristine pool: a fresh
	// cluster.ClonePool (clone) and an in-place PoolState.Restore
	// (recycle, the campaign engine's path).
	Pool struct {
		CloneNsPerOp   float64 `json:"clone_ns_per_op"`
		RecycleNsPerOp float64 `json:"recycle_ns_per_op"`
	} `json:"pool"`
	HotPaths []hotPath `json:"hot_paths"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("campaignbench: ")
	outPath := flag.String("out", "BENCH_campaign.json", "output path")
	flag.Parse()
	ctx := context.Background()

	c, err := cluster.New(benchNodes+3, cpumodel.Quartz(), cpumodel.QuartzVariation(), 11)
	if err != nil {
		log.Fatal(err)
	}
	src := c.Nodes()[:benchNodes]
	charNodes := c.Nodes()[benchNodes:]
	opt := charz.DefaultOptions()
	cfg := benchCampaignConfig()
	workloads := benchWorkloads()
	nScenarios := len(cfg.Seeds) * len(cfg.Interarrivals) * len(cfg.Budgets) * len(cfg.Policies)

	var out benchOutput
	out.GeneratedBy = "cmd/campaignbench"
	out.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	out.Host.NumCPU = runtime.NumCPU()
	out.Matrix.Scenarios = nScenarios
	out.Matrix.Seeds = len(cfg.Seeds)
	out.Matrix.Interarrivals = len(cfg.Interarrivals)
	out.Matrix.Budgets = len(cfg.Budgets)
	out.Matrix.Policies = len(cfg.Policies)
	out.Matrix.Nodes = benchNodes

	// Naive baseline: one facility invocation per scenario, each with a
	// fresh clone pool and a full re-characterization, enumerated in the
	// campaign's canonical matrix order.
	log.Printf("baseline: %d scenarios, re-characterizing each...", nScenarios)
	naive := make([]*facility.Result, 0, nScenarios)
	start := time.Now()
	for _, pol := range cfg.Policies {
		for _, ia := range cfg.Interarrivals {
			for _, budget := range cfg.Budgets {
				for _, seed := range cfg.Seeds {
					db, err := charz.CharacterizeAll(ctx, workloads, cluster.ClonePool(charNodes), opt)
					if err != nil {
						log.Fatal(err)
					}
					fc := cfg.Base
					fc.Nodes = cluster.ClonePool(src)
					fc.DB = db
					fc.Seed = seed
					fc.MeanInterarrival = ia
					fc.SystemBudget = budget
					fc.Policy = pol
					res, err := facility.Run(ctx, fc)
					if err != nil {
						log.Fatal(err)
					}
					naive = append(naive, res)
				}
			}
		}
	}
	out.Baseline.Mode = "sequential, fresh clone pool + full re-characterization per scenario"
	out.Baseline.Seconds = time.Since(start).Seconds()
	out.Baseline.ScenariosPerSecond = float64(nScenarios) / out.Baseline.Seconds
	log.Printf("baseline: %.2fs (%.1f scenarios/s)", out.Baseline.Seconds, out.Baseline.ScenariosPerSecond)

	// Engine: characterize once through the singleflight cache (timed as
	// the cold fill), then run the same matrix at increasing parallelism.
	cache := charz.NewCache()
	db := charz.NewDB()
	start = time.Now()
	for _, w := range workloads {
		e, _, err := cache.GetOrCharacterize(ctx, w, cluster.ClonePool(charNodes), opt)
		if err != nil {
			log.Fatal(err)
		}
		db.Put(e)
	}
	out.Cache.ColdSeconds = time.Since(start).Seconds()
	start = time.Now()
	for _, w := range workloads {
		if _, _, err := cache.GetOrCharacterize(ctx, w, cluster.ClonePool(charNodes), opt); err != nil {
			log.Fatal(err)
		}
	}
	out.Cache.WarmSeconds = time.Since(start).Seconds()
	out.Cache.Speedup = out.Cache.ColdSeconds / out.Cache.WarmSeconds
	log.Printf("cache: cold %.3fs, warm %.6fs (%.0fx)", out.Cache.ColdSeconds, out.Cache.WarmSeconds, out.Cache.Speedup)

	runner := &campaign.Runner{Nodes: src, DB: db}
	var refJSON []byte
	out.ByteIdentical = true
	for _, par := range []int{1, 2, 4, 8} {
		cfg.Parallelism = par
		start = time.Now()
		rep, err := runner.Run(ctx, cfg)
		if err != nil {
			log.Fatal(err)
		}
		secs := time.Since(start).Seconds()
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			log.Fatal(err)
		}
		if refJSON == nil {
			refJSON = buf.Bytes()
			out.MatchesNaiveBaseline = matchesNaive(rep, naive)
		} else if !bytes.Equal(refJSON, buf.Bytes()) {
			out.ByteIdentical = false
		}
		total := secs + out.Cache.ColdSeconds
		out.Engine = append(out.Engine, engineRun{
			Parallel:           par,
			Seconds:            secs,
			TotalSeconds:       total,
			ScenariosPerSecond: float64(nScenarios) / secs,
			SpeedupVsBaseline:  out.Baseline.Seconds / total,
		})
		log.Printf("engine -parallel %d: %.2fs run, %.2fs with characterization (%.1fx vs baseline)",
			par, secs, total, out.Baseline.Seconds/total)
	}

	out.Pool.CloneNsPerOp, out.Pool.RecycleNsPerOp = benchPool(src)
	out.HotPaths = benchHotPaths()
	log.Printf("pool: clone %.0f ns/op, restore %.0f ns/op", out.Pool.CloneNsPerOp, out.Pool.RecycleNsPerOp)

	b, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*outPath, append(b, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *outPath)
}

// matchesNaive cross-checks the engine report against the naive baseline's
// per-scenario results, which ran in the same matrix order.
func matchesNaive(rep *campaign.Report, naive []*facility.Result) bool {
	if len(rep.Scenarios) != len(naive) {
		return false
	}
	for i, s := range rep.Scenarios {
		r := naive[i]
		if s.TotalEnergy != r.TotalEnergy || s.Completed != r.Completed ||
			s.MeanQueueWait != r.MeanQueueWait || s.PeakPower != r.PeakPower {
			return false
		}
	}
	return true
}

// benchPool times a fresh ClonePool against an in-place PoolState.Restore
// over the same source pool.
func benchPool(src []*node.Node) (cloneNs, restoreNs float64) {
	clone := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster.ClonePool(src)
		}
	})
	ps := cluster.NewPoolState(src)
	restore := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ps.Restore(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return float64(clone.NsPerOp()), float64(restore.NsPerOp())
}

func benchHotPaths() []hotPath {
	var out []hotPath
	add := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		out = append(out, hotPath{Name: name, NsPerOp: float64(r.NsPerOp()), AllocsPerOp: r.AllocsPerOp()})
	}

	// Policy replan: 8 jobs × 16 hosts through the pooled-scratch path.
	jobs := benchPolicyJobs()
	sys := policy.System{Budget: 100 * 8 * 16}
	add("policy.MixedAdaptive.Allocate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := (policy.MixedAdaptive{}).Allocate(sys, jobs); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Cap inversion: precomputed table vs full-range bisection.
	sock := cpumodel.NewSocket(cpumodel.Quartz(), 1.0)
	w := kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1}
	ph := cpumodel.Phase{Work: w.TotalWorkPerHost(18, true), Vector: w.Vector}
	table := cpumodel.CapTableFor(&sock.Spec, ph)
	caps := make([]units.Power, 64)
	for i := range caps {
		caps[i] = 60 + units.Power(i)
	}
	add("cpumodel.CapTable.FrequencyForCap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			table.FrequencyForCap(sock.Eta, caps[i%len(caps)])
		}
	})
	add("cpumodel.Socket.FrequencyForCap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sock.FrequencyForCap(ph, caps[i%len(caps)])
		}
	})
	add("cpumodel.Socket.Operate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sock.Operate(ph, sock.Spec.BaseFreq)
		}
	})

	// Seed aggregation: the bootstrap behind every group CI.
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(i) * 1.7
	}
	rng := rand.New(rand.NewPCG(1, 2))
	add("stats.Bootstrap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stats.Bootstrap(xs, 200, stats.Mean, rng)
		}
	})
	return out
}

func benchPolicyJobs() []policy.JobInfo {
	jobs := make([]policy.JobInfo, 8)
	for ji := range jobs {
		hosts := make([]policy.HostInfo, 16)
		for hi := range hosts {
			role := bsp.Critical
			if hi%4 == 3 {
				role = bsp.Waiting
			}
			hosts[hi] = policy.HostInfo{Role: role, Min: 68, Max: 120}
		}
		spread := units.Power(ji * 3)
		jobs[ji] = policy.JobInfo{
			ID:    string(rune('a' + ji)),
			Hosts: hosts,
			Char: charz.Entry{
				Hosts:               16,
				MonitorHostPower:    95 - spread,
				MonitorMaxHostPower: 110 - spread,
				MonitorCriticalPwr:  108 - spread,
				MonitorWaitingPwr:   80 - spread,
				NeededCritical:      100 - spread,
				NeededWaiting:       72,
				NeededMin:           70,
				NeededMax:           100 - spread,
				NeededMean:          88 - spread,
			},
		}
	}
	return jobs
}
