package kernel

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"powerstack/internal/units"
)

func TestVectorString(t *testing.T) {
	cases := map[Vector]string{Scalar: "scalar", XMM: "xmm", YMM: "ymm", Vector(9): "Vector(9)"}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(v), got, want)
		}
	}
}

func TestVectorLanes(t *testing.T) {
	if Scalar.Lanes() != 1 || XMM.Lanes() != 2 || YMM.Lanes() != 4 {
		t.Errorf("lanes = %d, %d, %d", Scalar.Lanes(), XMM.Lanes(), YMM.Lanes())
	}
}

func TestVectorScalesMonotone(t *testing.T) {
	vs := Vectors()
	for i := 1; i < len(vs); i++ {
		if vs[i].ThroughputScale() <= vs[i-1].ThroughputScale() {
			t.Errorf("throughput scale not increasing at %v", vs[i])
		}
		if vs[i].PowerScale() <= vs[i-1].PowerScale() {
			t.Errorf("power scale not increasing at %v", vs[i])
		}
	}
	if YMM.ThroughputScale() != 1 || YMM.PowerScale() != 1 {
		t.Error("ymm should be the reference width")
	}
}

func TestConfigValidate(t *testing.T) {
	valid := []Config{
		{Intensity: 0, Vector: YMM, WaitingPct: 0, Imbalance: 1},
		{Intensity: 32, Vector: Scalar, WaitingPct: 75, Imbalance: 3},
		{Intensity: 0.25, Vector: XMM, WaitingPct: 25, Imbalance: 2},
	}
	for _, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v, want nil", c, err)
		}
	}
	invalid := []Config{
		{Intensity: -1, Vector: YMM, Imbalance: 1},
		{Intensity: 1, Vector: Vector(5), Imbalance: 1},
		{Intensity: 1, Vector: YMM, WaitingPct: 30, Imbalance: 2},
		{Intensity: 1, Vector: YMM, WaitingPct: 25, Imbalance: 0.5},
		{Intensity: 1, Vector: YMM, WaitingPct: 0, Imbalance: 2},
	}
	for _, c := range invalid {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestConfigName(t *testing.T) {
	c := Config{Intensity: 8, Vector: YMM, WaitingPct: 50, Imbalance: 2}
	if got := c.Name(); got != "ymm-i8-w50-x2" {
		t.Errorf("Name = %q", got)
	}
	c = Config{Intensity: 0.25, Vector: XMM, Imbalance: 1}
	if got := c.Name(); got != "xmm-i0p25" {
		t.Errorf("Name = %q", got)
	}
}

func TestConfigString(t *testing.T) {
	c := Config{Intensity: 16, Vector: YMM, WaitingPct: 75, Imbalance: 3}
	s := c.String()
	for _, frag := range []string{"16 FLOPs/byte", "ymm", "75% waiting", "3x"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String %q missing %q", s, frag)
		}
	}
	if got := (Config{Intensity: 1, Vector: Scalar, Imbalance: 1}).String(); !strings.Contains(got, "balanced") {
		t.Errorf("balanced String = %q", got)
	}
}

func TestWorkAccounting(t *testing.T) {
	c := Config{Intensity: 4, Vector: YMM, WaitingPct: 50, Imbalance: 2}
	cw := c.CriticalWork()
	ww := c.WaitingWork()
	if cw.Traffic != 2*BaseTrafficPerIteration {
		t.Errorf("critical traffic = %v", cw.Traffic)
	}
	if ww.Traffic != BaseTrafficPerIteration {
		t.Errorf("waiting traffic = %v", ww.Traffic)
	}
	if got, want := float64(cw.Flops), 4*float64(cw.Traffic); got != want {
		t.Errorf("critical flops = %v, want %v", got, want)
	}
	// Zero-intensity configs perform no FLOPs but still stream memory.
	z := Config{Intensity: 0, Vector: YMM, Imbalance: 1}
	if z.CriticalWork().Flops != 0 || z.CriticalWork().Traffic == 0 {
		t.Errorf("zero-intensity work = %+v", z.CriticalWork())
	}
}

func TestTotalWorkPerHost(t *testing.T) {
	c := Config{Intensity: 2, Vector: YMM, WaitingPct: 25, Imbalance: 3}
	crit := c.TotalWorkPerHost(34, true)
	wait := c.TotalWorkPerHost(34, false)
	if crit.Traffic != 34*3*BaseTrafficPerIteration {
		t.Errorf("critical host traffic = %v", crit.Traffic)
	}
	if wait.Traffic != 34*BaseTrafficPerIteration {
		t.Errorf("waiting host traffic = %v", wait.Traffic)
	}
	if crit.Flops != units.Flops(2*float64(crit.Traffic)) {
		t.Errorf("critical host flops = %v", crit.Flops)
	}
}

func TestWaitingFraction(t *testing.T) {
	c := Config{WaitingPct: 75}
	if got := c.WaitingFraction(); got != 0.75 {
		t.Errorf("WaitingFraction = %v", got)
	}
}

func TestHeatmapGrid(t *testing.T) {
	grid := HeatmapConfigs(YMM)
	if len(grid) != 8 {
		t.Fatalf("rows = %d, want 8", len(grid))
	}
	for _, row := range grid {
		if len(row) != 7 {
			t.Fatalf("cols = %d, want 7", len(row))
		}
		for _, cfg := range row {
			if err := cfg.Validate(); err != nil {
				t.Errorf("heatmap config %v invalid: %v", cfg, err)
			}
			if cfg.Vector != YMM {
				t.Errorf("vector = %v", cfg.Vector)
			}
		}
	}
	if got := grid[0][0].Intensity; got != 0.25 {
		t.Errorf("first intensity = %v", got)
	}
	if got := grid[7][6]; got.Intensity != 32 || got.WaitingPct != 75 || got.Imbalance != 3 {
		t.Errorf("last cell = %+v", got)
	}
}

func TestImbalanceColumnLabel(t *testing.T) {
	if got := (ImbalanceColumn{0, 1}).Label(); got != "0%" {
		t.Errorf("label = %q", got)
	}
	if got := (ImbalanceColumn{50, 2}).Label(); got != "50% at 2x" {
		t.Errorf("label = %q", got)
	}
}

// Property: Name is unique across the heatmap grid and all vector widths.
func TestNamesUnique(t *testing.T) {
	seen := make(map[string]Config)
	for _, v := range Vectors() {
		for _, row := range HeatmapConfigs(v) {
			for _, cfg := range row {
				n := cfg.Name()
				if prev, dup := seen[n]; dup {
					t.Fatalf("duplicate name %q for %+v and %+v", n, prev, cfg)
				}
				seen[n] = cfg
			}
		}
	}
}

// Property: critical work dominates waiting work, scaled by imbalance.
func TestWorkScalingProperty(t *testing.T) {
	f := func(intRaw, imbRaw uint8) bool {
		intensity := float64(intRaw) / 8
		imbalance := 1 + float64(imbRaw%3)
		c := Config{Intensity: intensity, Vector: YMM, WaitingPct: 50, Imbalance: imbalance}
		cw, ww := c.CriticalWork(), c.WaitingWork()
		wantTraffic := float64(ww.Traffic) * imbalance
		return math.Abs(float64(cw.Traffic)-wantTraffic) < 1e-6 && cw.Flops >= ww.Flops
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunProducesChecksum(t *testing.T) {
	buf := MakeBuffer(4096)
	for _, v := range Vectors() {
		cfg := Config{Intensity: 2, Vector: v, Imbalance: 1}
		got := Run(cfg, buf)
		if got == 0 || math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("Run(%v) checksum = %v", v, got)
		}
	}
	if got := Run(Config{Vector: YMM, Imbalance: 1}, nil); got != 0 {
		t.Errorf("Run(empty) = %v", got)
	}
}

func TestRunHandlesOddLengths(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 9} {
		buf := MakeBuffer(n)
		for _, v := range Vectors() {
			got := Run(Config{Intensity: 1, Vector: v, Imbalance: 1}, buf)
			if math.IsNaN(got) || got == 0 {
				t.Errorf("Run(n=%d, %v) = %v", n, v, got)
			}
		}
	}
}

func TestRunZeroIntensityIsPureStreaming(t *testing.T) {
	buf := MakeBuffer(1024)
	sum := 0.0
	for _, v := range buf {
		sum += v
	}
	got := Run(Config{Intensity: 0, Vector: Scalar, Imbalance: 1}, buf)
	if math.Abs(got-sum) > 1e-9 {
		t.Errorf("zero-intensity Run = %v, want plain sum %v", got, sum)
	}
}

func TestMakeBufferValuesBounded(t *testing.T) {
	buf := MakeBuffer(100000)
	for i, v := range buf {
		if v < 0.5 || v > 2.5 {
			t.Fatalf("buf[%d] = %v outside [0.5, 2.5]", i, v)
		}
	}
}

// SpinWait models the slack/polling phase of Figure 2: it busy-polls the
// done predicate exactly as an MPI_Barrier spin loop would, returning the
// number of polls performed.
func SpinWait(done func() bool) uint64 {
	var polls uint64
	for !done() {
		polls++
	}
	return polls
}

func TestSpinWait(t *testing.T) {
	n := 0
	polls := SpinWait(func() bool { n++; return n > 10 })
	if polls != 10 {
		t.Errorf("polls = %d, want 10", polls)
	}
	if got := SpinWait(func() bool { return true }); got != 0 {
		t.Errorf("immediate done polls = %d", got)
	}
}

func TestFmaCount(t *testing.T) {
	cases := []struct {
		flops float64
		want  int
	}{{0, 0}, {1, 0}, {2, 1}, {8, 4}, {256, 128}, {-4, 0}}
	for _, c := range cases {
		if got := fmaCount(c.flops); got != c.want {
			t.Errorf("fmaCount(%v) = %d, want %d", c.flops, got, c.want)
		}
	}
}
