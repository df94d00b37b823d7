package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// Throughput returns the floating-point throughput achieved by completing
// work in duration d. It returns 0 for non-positive durations.
func Throughput(work Flops, d time.Duration) FlopsPerSecond {
	s := d.Seconds()
	if s <= 0 {
		return 0
	}
	return FlopsPerSecond(float64(work) / s)
}

// DurationFor returns how long the given amount of work takes at a sustained
// throughput. It returns 0 for non-positive throughput to avoid propagating
// infinities through the simulator; callers treat 0 as "no progress".
func DurationFor(work Flops, rate FlopsPerSecond) time.Duration {
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(work) / float64(rate) * float64(time.Second))
}

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestPowerConversions(t *testing.T) {
	p := 1350 * Kilowatt
	if got := p.Megawatts(); !almostEqual(got, 1.35, 1e-12) {
		t.Errorf("Megawatts = %v, want 1.35", got)
	}
	if got := p.Watts(); !almostEqual(got, 1.35e6, 1e-12) {
		t.Errorf("Watts = %v, want 1.35e6", got)
	}
	if got := (120 * Watt).Kilowatts(); !almostEqual(got, 0.12, 1e-12) {
		t.Errorf("Kilowatts = %v, want 0.12", got)
	}
}

func TestPowerString(t *testing.T) {
	cases := []struct {
		p    Power
		want string
	}{
		{1.35 * Megawatt, "MW"},
		{209 * Kilowatt, "kW"},
		{120 * Watt, "W"},
		{5 * Milliwatt, "mW"},
		{0, "W"},
	}
	for _, c := range cases {
		if got := c.p.String(); !strings.Contains(got, c.want) {
			t.Errorf("(%g).String() = %q, want suffix %q", float64(c.p), got, c.want)
		}
	}
}

func TestEnergyConversions(t *testing.T) {
	e := 1 * KilowattHour
	if got := e.Joules(); !almostEqual(got, 3.6e6, 1e-12) {
		t.Errorf("Joules = %v, want 3.6e6", got)
	}
	if got := (2500 * Joule).Kilojoules(); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Kilojoules = %v, want 2.5", got)
	}
}

func TestEnergyString(t *testing.T) {
	if got := (4.2 * Megajoule).String(); !strings.Contains(got, "MJ") {
		t.Errorf("String = %q, want MJ", got)
	}
	if got := (4200 * Joule).String(); !strings.Contains(got, "kJ") {
		t.Errorf("String = %q, want kJ", got)
	}
	if got := (42 * Joule).String(); !strings.Contains(got, "J") {
		t.Errorf("String = %q, want J", got)
	}
}

func TestFrequencyConversions(t *testing.T) {
	f := 2.1 * Gigahertz
	if got := f.GHz(); !almostEqual(got, 2.1, 1e-12) {
		t.Errorf("GHz = %v, want 2.1", got)
	}
	if got := f.MHz(); !almostEqual(got, 2100, 1e-12) {
		t.Errorf("MHz = %v, want 2100", got)
	}
}

func TestFrequencyString(t *testing.T) {
	cases := []struct {
		f    Frequency
		want string
	}{
		{2.1 * Gigahertz, "GHz"},
		{100 * Megahertz, "MHz"},
		{32 * Kilohertz, "kHz"},
		{50 * Hertz, "Hz"},
	}
	for _, c := range cases {
		if got := c.f.String(); !strings.Contains(got, c.want) {
			t.Errorf("(%g).String() = %q, want %q", float64(c.f), got, c.want)
		}
	}
}

func TestBandwidthString(t *testing.T) {
	r := 12.44 * GBPerSecond
	if got := r.GBs(); !almostEqual(got, 12.44, 1e-12) {
		t.Errorf("GBs = %v, want 12.44", got)
	}
	if got := r.String(); !strings.Contains(got, "GB/s") {
		t.Errorf("String = %q, want GB/s", got)
	}
}

func TestFlopsString(t *testing.T) {
	f := 38.49 * Gigaflops
	if got := f.GFLOPS(); !almostEqual(got, 38.49, 1e-12) {
		t.Errorf("GFLOPS = %v, want 38.49", got)
	}
	if got := f.String(); !strings.Contains(got, "GFLOPS") {
		t.Errorf("String = %q, want GFLOPS", got)
	}
}

func TestEnergyOver(t *testing.T) {
	e := EnergyOver(120*Watt, 10*time.Second)
	if got := e.Joules(); !almostEqual(got, 1200, 1e-12) {
		t.Errorf("EnergyOver = %v J, want 1200", got)
	}
	if e := EnergyOver(0, time.Hour); e != 0 {
		t.Errorf("EnergyOver(0, 1h) = %v, want 0", e)
	}
}

func TestMeanPower(t *testing.T) {
	p := MeanPower(1200*Joule, 10*time.Second)
	if got := p.Watts(); !almostEqual(got, 120, 1e-12) {
		t.Errorf("MeanPower = %v W, want 120", got)
	}
	if p := MeanPower(100*Joule, 0); p != 0 {
		t.Errorf("MeanPower with zero duration = %v, want 0", p)
	}
	if p := MeanPower(100*Joule, -time.Second); p != 0 {
		t.Errorf("MeanPower with negative duration = %v, want 0", p)
	}
}

func TestEDP(t *testing.T) {
	if got := EDP(100*Joule, 2*time.Second); !almostEqual(got, 200, 1e-12) {
		t.Errorf("EDP = %v, want 200", got)
	}
}

func TestFlopsPerWatt(t *testing.T) {
	if got := FlopsPerWatt(1e9, 10*Joule); !almostEqual(got, 1e8, 1e-12) {
		t.Errorf("FlopsPerWatt = %v, want 1e8", got)
	}
	if got := FlopsPerWatt(1e9, 0); got != 0 {
		t.Errorf("FlopsPerWatt with zero energy = %v, want 0", got)
	}
}

func TestThroughputAndDurationRoundTrip(t *testing.T) {
	work := Flops(7.5e9)
	d := 3 * time.Second
	rate := Throughput(work, d)
	if got := rate.GFLOPS(); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Throughput = %v GFLOPS, want 2.5", got)
	}
	back := DurationFor(work, rate)
	if diff := (back - d).Seconds(); math.Abs(diff) > 1e-6 {
		t.Errorf("DurationFor round trip = %v, want %v", back, d)
	}
}

func TestThroughputDegenerate(t *testing.T) {
	if got := Throughput(1e9, 0); got != 0 {
		t.Errorf("Throughput zero duration = %v, want 0", got)
	}
	if got := DurationFor(1e9, 0); got != 0 {
		t.Errorf("DurationFor zero rate = %v, want 0", got)
	}
	if got := DurationFor(1e9, -1); got != 0 {
		t.Errorf("DurationFor negative rate = %v, want 0", got)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct {
		v, lo, hi, want Power
	}{
		{50, 68, 120, 68},
		{150, 68, 120, 120},
		{90, 68, 120, 90},
		{68, 68, 120, 68},
		{120, 68, 120, 120},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

// Property: Clamp output is always within [lo, hi] when lo <= hi.
func TestClampProperty(t *testing.T) {
	f := func(v, a, b float64) bool {
		if math.IsNaN(v) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := Power(math.Min(a, b)), Power(math.Max(a, b))
		got := Clamp(Power(v), lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: EnergyOver is linear in both power and duration.
func TestEnergyOverLinearity(t *testing.T) {
	f := func(pw float64, secs int16) bool {
		if math.IsNaN(pw) || math.IsInf(pw, 0) {
			return true
		}
		p := Power(math.Mod(pw, 1e6))
		d := time.Duration(secs) * time.Millisecond
		e1 := EnergyOver(p, d)
		e2 := EnergyOver(2*p, d)
		return almostEqual(float64(e2), 2*float64(e1), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MeanPower inverts EnergyOver for positive durations.
func TestMeanPowerInvertsEnergyOver(t *testing.T) {
	f := func(pw float64, ms uint16) bool {
		if math.IsNaN(pw) || math.IsInf(pw, 0) {
			return true
		}
		p := Power(math.Mod(math.Abs(pw), 1e6))
		d := time.Duration(ms+1) * time.Millisecond
		got := MeanPower(EnergyOver(p, d), d)
		return almostEqual(float64(got), float64(p), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
