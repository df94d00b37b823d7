package rapl

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"powerstack/internal/msr"
	"powerstack/internal/units"
)

func newTestDomain(t *testing.T) (*Domain, *msr.Device) {
	t.Helper()
	dev := msr.NewDevice(nil)
	ProgramDefaults(dev, 120*units.Watt, 68*units.Watt, 180*units.Watt)
	d, err := NewDomain(dev)
	if err != nil {
		t.Fatal(err)
	}
	return d, dev
}

func TestDecodeUnitsDefaults(t *testing.T) {
	u := DecodeUnits(DefaultUnitsRegister)
	if got := u.PowerUnit.Watts(); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("PowerUnit = %v, want 0.125", got)
	}
	if got := u.EnergyUnit.Joules(); math.Abs(got-1.0/65536) > 1e-15 {
		t.Errorf("EnergyUnit = %v, want 2^-16", got)
	}
	wantTime := float64(time.Second) / 1024
	if got := float64(u.TimeUnit); math.Abs(got-wantTime) > 1 {
		t.Errorf("TimeUnit = %v, want %v ns", got, wantTime)
	}
}

func TestNewDomainErrors(t *testing.T) {
	if _, err := NewDomain(nil); err != ErrNoDevice {
		t.Errorf("nil device err = %v", err)
	}
	// Unprogrammed device: unit register is zero.
	if _, err := NewDomain(msr.NewDevice(nil)); err == nil {
		t.Error("expected error for unprogrammed unit register")
	}
}

func TestSetReadLimitRoundTrip(t *testing.T) {
	d, _ := newTestDomain(t)
	want := Limit{Power: 95 * units.Watt, TimeWindow: time.Second, Enabled: true, Clamped: true}
	if err := d.SetLimit(want); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadLimit()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Power.Watts()-95) > 0.125 {
		t.Errorf("Power = %v, want 95 W (+-1 LSB)", got.Power)
	}
	if !got.Enabled || !got.Clamped {
		t.Errorf("flags = %+v", got)
	}
	if math.Abs(got.TimeWindow.Seconds()-1) > 0.01 {
		t.Errorf("TimeWindow = %v, want ~1s", got.TimeWindow)
	}
}

func TestSetLimitQuantizes(t *testing.T) {
	d, _ := newTestDomain(t)
	if err := d.SetLimit(Limit{Power: 68.0625 * units.Watt, Enabled: true}); err != nil {
		t.Fatal(err)
	}
	got, _ := d.ReadLimit()
	// 68.0625 / 0.125 = 544.5 rounds away from zero -> 545 LSB = 68.125 W.
	if math.Abs(got.Power.Watts()-68.125) > 1e-9 {
		t.Errorf("quantized power = %v, want 68.125", got.Power)
	}
}

func TestSetLimitRejectsNegative(t *testing.T) {
	d, _ := newTestDomain(t)
	if err := d.SetLimit(Limit{Power: -1}); err == nil {
		t.Error("expected error for negative limit")
	}
}

func TestSetLimitSaturatesField(t *testing.T) {
	d, _ := newTestDomain(t)
	if err := d.SetLimit(Limit{Power: 1e9 * units.Watt, Enabled: true}); err != nil {
		t.Fatal(err)
	}
	got, _ := d.ReadLimit()
	// 15-bit field at 0.125 W per LSB saturates just below 4096 W.
	if got.Power.Watts() > 4096 {
		t.Errorf("saturated power = %v, want <= 4096 W", got.Power)
	}
}

func TestPowerOnDefaultsReadable(t *testing.T) {
	d, _ := newTestDomain(t)
	l, err := d.ReadLimit()
	if err != nil {
		t.Fatal(err)
	}
	if !l.Enabled || !l.Clamped {
		t.Errorf("power-on PL1 flags = %+v, want enabled+clamped", l)
	}
	if math.Abs(l.Power.Watts()-120) > 0.25 {
		t.Errorf("power-on PL1 = %v, want TDP 120 W", l.Power)
	}
	if want := encodeTimeWindow(time.Second, DecodeUnits(DefaultUnitsRegister).TimeUnit); defaultWindowField != want {
		t.Errorf("defaultWindowField = %#x, uncached encoding %#x", defaultWindowField, want)
	}
	if want := decodeTimeWindow(defaultWindowField, d.Units().TimeUnit); l.TimeWindow != want {
		t.Errorf("power-on window = %v, want %v", l.TimeWindow, want)
	}
	info, err := d.ReadPowerInfo()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(info.TDP.Watts()-120) > 0.25 {
		t.Errorf("TDP = %v", info.TDP)
	}
	if math.Abs(info.MinPower.Watts()-68) > 0.25 {
		t.Errorf("MinPower = %v", info.MinPower)
	}
	if math.Abs(info.MaxPower.Watts()-180) > 0.25 {
		t.Errorf("MaxPower = %v", info.MaxPower)
	}
}

func TestReadEnergyAccumulates(t *testing.T) {
	d, dev := newTestDomain(t)
	if _, err := d.ReadEnergy(); err != nil { // prime
		t.Fatal(err)
	}
	// Advance by exactly 1 J.
	dev.PrivilegedAdd(msr.MSRPkgEnergyStatus, d.EncodeEnergyDelta(1*units.Joule), 32)
	e, err := d.ReadEnergy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Joules()-1) > 1e-4 {
		t.Errorf("energy = %v, want 1 J", e)
	}
	dev.PrivilegedAdd(msr.MSRPkgEnergyStatus, d.EncodeEnergyDelta(2.5*units.Joule), 32)
	e, _ = d.ReadEnergy()
	if math.Abs(e.Joules()-3.5) > 1e-4 {
		t.Errorf("energy = %v, want 3.5 J", e)
	}
}

func TestReadEnergyHandlesWraparound(t *testing.T) {
	d, dev := newTestDomain(t)
	// Park the counter near the top, prime, then wrap.
	dev.PrivilegedWrite(msr.MSRPkgEnergyStatus, 0xFFFF_FF00)
	if _, err := d.ReadEnergy(); err != nil {
		t.Fatal(err)
	}
	dev.PrivilegedAdd(msr.MSRPkgEnergyStatus, 0x200, 32) // crosses the wrap
	e, err := d.ReadEnergy()
	if err != nil {
		t.Fatal(err)
	}
	want := float64(0x200) / 65536
	if math.Abs(e.Joules()-want) > 1e-9 {
		t.Errorf("energy after wrap = %v J, want %v", e.Joules(), want)
	}
}

func TestReadDRAMEnergyIndependentOfPackage(t *testing.T) {
	d, dev := newTestDomain(t)
	if _, err := d.ReadEnergy(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadDRAMEnergy(); err != nil {
		t.Fatal(err)
	}
	dev.PrivilegedAdd(msr.MSRPkgEnergyStatus, d.EncodeEnergyDelta(3*units.Joule), 32)
	dev.PrivilegedAdd(msr.MSRDramEnergyStatus, d.EncodeEnergyDelta(1*units.Joule), 32)
	pkg, err := d.ReadEnergy()
	if err != nil {
		t.Fatal(err)
	}
	dram, err := d.ReadDRAMEnergy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pkg.Joules()-3) > 1e-4 || math.Abs(dram.Joules()-1) > 1e-4 {
		t.Errorf("pkg=%v dram=%v, want 3 and 1 J", pkg, dram)
	}
}

func TestReadDRAMEnergyWraparound(t *testing.T) {
	d, dev := newTestDomain(t)
	dev.PrivilegedWrite(msr.MSRDramEnergyStatus, 0xFFFF_FFF0)
	if _, err := d.ReadDRAMEnergy(); err != nil {
		t.Fatal(err)
	}
	dev.PrivilegedAdd(msr.MSRDramEnergyStatus, 0x20, 32)
	e, err := d.ReadDRAMEnergy()
	if err != nil {
		t.Fatal(err)
	}
	want := float64(0x20) / 65536
	if math.Abs(e.Joules()-want) > 1e-9 {
		t.Errorf("energy after wrap = %v, want %v", e.Joules(), want)
	}
}

func TestEncodeEnergyDelta(t *testing.T) {
	d, _ := newTestDomain(t)
	if got := d.EncodeEnergyDelta(0); got != 0 {
		t.Errorf("zero energy = %d LSB", got)
	}
	if got := d.EncodeEnergyDelta(-5 * units.Joule); got != 0 {
		t.Errorf("negative energy = %d LSB", got)
	}
	if got := d.EncodeEnergyDelta(1 * units.Joule); got != 65536 {
		t.Errorf("1 J = %d LSB, want 65536", got)
	}
}

// Property: limit round trip error never exceeds one power LSB, and energy
// accounting is exact to one energy LSB per step regardless of wrap position.
func TestLimitRoundTripProperty(t *testing.T) {
	d, _ := newTestDomain(t)
	f := func(raw uint16) bool {
		p := units.Power(math.Mod(float64(raw), 4000))
		if err := d.SetLimit(Limit{Power: p, Enabled: true}); err != nil {
			return false
		}
		got, err := d.ReadLimit()
		if err != nil {
			return false
		}
		return math.Abs(got.Power.Watts()-p.Watts()) <= 0.125/2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnergyMonotoneUnderRandomSteps(t *testing.T) {
	d, dev := newTestDomain(t)
	prev, _ := d.ReadEnergy()
	f := func(stepRaw uint32) bool {
		step := uint64(stepRaw % 100_000_000)
		dev.PrivilegedAdd(msr.MSRPkgEnergyStatus, step, 32)
		e, err := d.ReadEnergy()
		if err != nil {
			return false
		}
		ok := e >= prev
		prev = e
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCloneContinuesEnergyIndependently(t *testing.T) {
	d, dev := newTestDomain(t)
	if _, err := d.ReadEnergy(); err != nil { // prime
		t.Fatal(err)
	}
	dev.PrivilegedAdd(msr.MSRPkgEnergyStatus, d.EncodeEnergyDelta(1*units.Joule), 32)
	if _, err := d.ReadEnergy(); err != nil {
		t.Fatal(err)
	}

	cdev := dev.CloneOnto(make([]uint64, dev.WordCount()))
	c := d.Clone(cdev)
	// The clone carries the accumulated 1 J and continues from its own
	// device's counter without a re-priming discontinuity.
	cdev.PrivilegedAdd(msr.MSRPkgEnergyStatus, c.EncodeEnergyDelta(2*units.Joule), 32)
	e, err := c.ReadEnergy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Joules()-3) > 1e-4 {
		t.Errorf("clone energy = %v, want 3 J", e)
	}
	// The original's accounting is untouched by the clone's progress.
	e, err = d.ReadEnergy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Joules()-1) > 1e-4 {
		t.Errorf("original energy = %v, want 1 J", e)
	}
	// Limits diverge: programming the clone leaves the original alone.
	if err := c.SetLimit(Limit{Power: 95 * units.Watt, TimeWindow: time.Second, Enabled: true}); err != nil {
		t.Fatal(err)
	}
	l, err := d.ReadLimit()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Power.Watts()-120) > 0.125 {
		t.Errorf("original limit = %v after clone SetLimit, want 120 W", l.Power)
	}
}

// powWindowField is the time-window encoder written with math.Pow, the form
// the Ldexp encoder must reproduce bit for bit.
func powWindowField(w, unit time.Duration) uint64 {
	if w <= 0 {
		return 0
	}
	target := float64(w) / float64(unit)
	best, bestErr := uint64(0), math.Inf(1)
	for y := uint64(0); y < 32; y++ {
		for z := uint64(0); z < 4; z++ {
			val := math.Pow(2, float64(y)) * (1 + float64(z)/4)
			if err := math.Abs(val - target); err < bestErr {
				bestErr, best = err, z<<5|y
			}
		}
	}
	return best
}

// TestTimeWindowEncodingMatchesPow pins the encoder and decoder against the
// math.Pow form over every field value and random (window, unit) pairs.
func TestTimeWindowEncodingMatchesPow(t *testing.T) {
	for y := uint64(0); y < 32; y++ {
		for z := uint64(0); z < 4; z++ {
			if got, want := windowValue(y, z), math.Pow(2, float64(y))*(1+float64(z)/4); got != want {
				t.Fatalf("y=%d z=%d: Ldexp %v, Pow %v", y, z, got, want)
			}
		}
	}
	rng := rand.New(rand.NewPCG(5, 9))
	for i := 0; i < 20000; i++ {
		unit := time.Duration(1 + rng.Int64N(int64(time.Millisecond)))
		w := time.Duration(rng.Int64N(int64(10 * time.Minute)))
		if i%4 == 0 {
			w = time.Duration(rng.Int64N(int64(64 * unit))) // near the low exponents
		}
		if got, want := encodeTimeWindow(w, unit), powWindowField(w, unit); got != want {
			t.Fatalf("window %v unit %v: field %#x, Pow form %#x", w, unit, got, want)
		}
	}
}

// TestSetLimitCachedMatchesUncached pins the encoder as an exact memo: for
// random powers and windows, a cached write on one device and an uncached
// write on its twin leave identical MSR_PKG_POWER_LIMIT words, and with a
// countdown fault armed on either access direction both fail on the same
// call.
func TestSetLimitCachedMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 3))
	// A few distinct values, revisited, so the memo both fills and replays.
	powers := make([]units.Power, 6)
	windows := make([]time.Duration, 4)
	for i := range powers {
		powers[i] = units.Power(rng.Float64() * 300)
	}
	for i := range windows {
		windows[i] = time.Duration(rng.Int64N(int64(3 * time.Second)))
	}
	limit := func() Limit {
		return Limit{
			Power:      powers[rng.IntN(len(powers))],
			TimeWindow: windows[rng.IntN(len(windows))],
			Enabled:    rng.IntN(2) == 0,
			Clamped:    rng.IntN(2) == 0,
		}
	}
	plain, plainDev := newTestDomain(t)
	cached, cachedDev := newTestDomain(t)
	var enc LimitEncoder
	for i := 0; i < 500; i++ {
		l := limit()
		if err := plain.SetLimit(l); err != nil {
			t.Fatal(err)
		}
		if err := cached.SetLimitCached(l, &enc); err != nil {
			t.Fatal(err)
		}
		if p, c := plainDev.PrivilegedRead(msr.MSRPkgPowerLimit), cachedDev.PrivilegedRead(msr.MSRPkgPowerLimit); p != c {
			t.Fatalf("write %d (%+v): uncached %#x, cached %#x", i, l, p, c)
		}
	}
	for _, op := range []msr.Op{msr.OpRead, msr.OpWrite} {
		for _, k := range []int{0, 1, 5} {
			plain, plainDev := newTestDomain(t)
			cached, cachedDev := newTestDomain(t)
			boom := errors.New("boom")
			plainDev.ArmFault(op, msr.MSRPkgPowerLimit, k, boom)
			cachedDev.ArmFault(op, msr.MSRPkgPowerLimit, k, boom)
			var enc LimitEncoder
			for i := 0; i < k+3; i++ {
				l := limit()
				perr, cerr := plain.SetLimit(l), cached.SetLimitCached(l, &enc)
				if wantFail := i >= k; errors.Is(perr, boom) != wantFail || errors.Is(cerr, boom) != wantFail {
					t.Fatalf("%s fault after %d, call %d: uncached err %v, cached err %v", op, k, i, perr, cerr)
				}
				if p, c := plainDev.PrivilegedRead(msr.MSRPkgPowerLimit), cachedDev.PrivilegedRead(msr.MSRPkgPowerLimit); p != c {
					t.Fatalf("%s fault after %d, call %d: uncached %#x, cached %#x", op, k, i, p, c)
				}
			}
		}
	}
}
