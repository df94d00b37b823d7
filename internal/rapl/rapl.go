// Package rapl implements Intel's Running Average Power Limit interface on
// top of the simulated MSR register file, mirroring the plumbing GEOPM uses
// on real Broadwell sockets: unit decoding from MSR_RAPL_POWER_UNIT, PL1
// programming in MSR_PKG_POWER_LIMIT, and energy accounting from the
// wrapping 32-bit MSR_PKG_ENERGY_STATUS accumulator [David et al., ISLPED'10].
package rapl

import (
	"errors"
	"fmt"
	"math"
	"time"

	"powerstack/internal/msr"
	"powerstack/internal/obs"
	"powerstack/internal/units"
)

// Default unit-register encoding for Broadwell-class parts:
// power unit 1/8 W (field 3), energy unit 2^-16 J = 15.3 uJ (field 16),
// time unit 976 us (field 10).
const DefaultUnitsRegister uint64 = 0x0A_10_03 // time=0xA<<16 | energy=0x10<<8 | power=0x3

// Units holds the decoded RAPL unit divisors.
type Units struct {
	// PowerUnit is the wattage of one power-field LSB (e.g. 0.125 W).
	PowerUnit units.Power
	// EnergyUnit is the energy of one energy-counter LSB (e.g. 15.26 uJ).
	EnergyUnit units.Energy
	// TimeUnit is the duration of one time-window LSB (e.g. 976.5 us).
	TimeUnit time.Duration
}

// DecodeUnits decodes MSR_RAPL_POWER_UNIT register contents per the SDM:
// each field is an exponent d such that the unit is 1/2^d of the base unit.
func DecodeUnits(reg uint64) Units {
	pw := msr.ExtractBits(reg, 3, 0)
	en := msr.ExtractBits(reg, 12, 8)
	tm := msr.ExtractBits(reg, 19, 16)
	return Units{
		PowerUnit:  units.Power(1 / math.Pow(2, float64(pw))),
		EnergyUnit: units.Energy(1 / math.Pow(2, float64(en))),
		TimeUnit:   time.Duration(1 / math.Pow(2, float64(tm)) * float64(time.Second)),
	}
}

// Limit describes one package power limit (PL1).
type Limit struct {
	// Power is the sustained average power limit.
	Power units.Power
	// TimeWindow is the averaging window for the running average.
	TimeWindow time.Duration
	// Enabled indicates whether the limit is enforced.
	Enabled bool
	// Clamped allows the processor to go below requested P-states to
	// honor the limit.
	Clamped bool
}

// PL1 field layout inside MSR_PKG_POWER_LIMIT.
const (
	pl1PowerHi, pl1PowerLo   uint = 14, 0
	pl1EnableBit             uint = 15
	pl1ClampBit              uint = 16
	pl1WindowHi, pl1WindowLo uint = 23, 17
)

// Domain is one RAPL power domain (here: a CPU package) bound to its MSR
// device. All reads and writes go through the allowlisted register file.
type Domain struct {
	dev   *msr.Device
	units Units

	// pkg and dram implement wraparound-safe energy accounting across
	// reads of the 32-bit counters of the two measurable domains.
	pkg  energyTracker
	dram energyTracker

	// sink receives MSR-write counts and energy-wraparound events when
	// observability is enabled; nil costs one comparison per operation.
	sink     *obs.Sink
	sinkHost string
}

// SetObs attaches an observability sink, tagging events with the owning
// host's ID. A nil sink detaches.
func (d *Domain) SetObs(s *obs.Sink, host string) {
	d.sink = s
	d.sinkHost = host
}

// energyTracker accumulates a wrapping 32-bit energy counter.
type energyTracker struct {
	lastRaw     uint64
	accumulated units.Energy
	primed      bool
}

// update folds a raw counter read into the accumulator and reports whether
// the 32-bit counter wrapped since the previous read.
func (t *energyTracker) update(raw uint64, unit units.Energy) (units.Energy, bool) {
	raw &= 0xFFFF_FFFF
	if !t.primed {
		t.lastRaw = raw
		t.primed = true
		return t.accumulated, false
	}
	wrapped := raw < t.lastRaw
	delta := (raw - t.lastRaw) & 0xFFFF_FFFF
	t.lastRaw = raw
	t.accumulated += units.Energy(float64(delta)) * units.Energy(float64(unit))
	return t.accumulated, wrapped
}

// ErrNoDevice is returned when constructing a Domain without a device.
var ErrNoDevice = errors.New("rapl: nil MSR device")

// NewDomain binds a RAPL package domain to an MSR device, decoding the unit
// register. The device must expose MSR_RAPL_POWER_UNIT.
func NewDomain(dev *msr.Device) (*Domain, error) {
	if dev == nil {
		return nil, ErrNoDevice
	}
	reg, err := dev.Read(msr.MSRRaplPowerUnit)
	if err != nil {
		return nil, fmt.Errorf("rapl: reading unit register: %w", err)
	}
	if reg == 0 {
		// A zero unit register would make every unit 1; real silicon is
		// fused with the defaults, so an unprogrammed simulated device is
		// a setup bug.
		return nil, errors.New("rapl: unit register not programmed")
	}
	return &Domain{dev: dev, units: DecodeUnits(reg)}, nil
}

// Clone returns a copy of the domain bound to dev, which must be the
// already-cloned MSR device of the same socket. Decoded units and the
// wraparound trackers' accumulated energy carry over, so ReadEnergy on the
// clone continues seamlessly from the original's accounting. The
// observability sink does not carry over; attach one with SetObs.
func (d *Domain) Clone(dev *msr.Device) *Domain {
	return &Domain{dev: dev, units: d.units, pkg: d.pkg, dram: d.dram}
}

// RestoreFrom resets the domain's wraparound trackers to the state of src
// and detaches any observability sink — the in-place counterpart of Clone
// for pool resets. The decoded units are construction-time constants of
// the bound device and are left alone; the caller restores the device
// separately (cluster.PoolState).
func (d *Domain) RestoreFrom(src *Domain) {
	d.pkg = src.pkg
	d.dram = src.dram
	d.sink = nil
	d.sinkHost = ""
}

// LimitEncoder memoizes the PL1 field encodings of repeated limits. A
// facility replan writes the same handful of distinct cap values across
// thousands of sockets, and every uncached write pays the power-field
// rounding plus the brute-force time-window search (128 candidates);
// the encoder computes each distinct (power, window) once and replays the
// fields from a map. Encodings are exact memoizations of pure functions of
// the unit register, so cached and uncached writes program identical bits.
//
// Its users are the resource manager's cap commits (rm.Manager and each
// rm.CapBatch) and the GEOPM controller, whose balancer reprograms every
// host of its job each iteration with the same 1 s window.
//
// An encoder caches for one unit scheme (the first domain it sees); domains
// with different decoded units bypass it. It is not safe for concurrent
// use — callers that fan out keep one encoder per goroutine.
type LimitEncoder struct {
	units   Units
	primed  bool
	powers  map[units.Power]uint64
	windows map[time.Duration]uint64
}

// fields returns the PL1 power and window fields for l under u, memoized.
func (e *LimitEncoder) fields(l Limit, u Units) (power, window uint64, ok bool) {
	if e == nil {
		return 0, 0, false
	}
	if !e.primed {
		e.units = u
		e.primed = true
		e.powers = make(map[units.Power]uint64, 8)
		e.windows = make(map[time.Duration]uint64, 2)
	} else if e.units != u {
		return 0, 0, false
	}
	power, hit := e.powers[l.Power]
	if !hit {
		power = encodePowerField(l.Power, u.PowerUnit)
		e.powers[l.Power] = power
	}
	window, hit = e.windows[l.TimeWindow]
	if !hit {
		window = encodeTimeWindow(l.TimeWindow, u.TimeUnit)
		e.windows[l.TimeWindow] = window
	}
	return power, window, true
}

// encodePowerField quantizes a power limit to power-unit LSBs, clamped to
// the 15-bit PL1 field.
func encodePowerField(p units.Power, unit units.Power) uint64 {
	field := uint64(math.Round(float64(p) / float64(unit)))
	if max := uint64(1)<<(pl1PowerHi-pl1PowerLo+1) - 1; field > max {
		field = max
	}
	return field
}

// SetLimitCached programs PL1 in MSR_PKG_POWER_LIMIT. The power is
// quantized to the power unit and the window to the time unit, as on
// hardware. The field encodings are served from enc when possible (nil enc,
// or an encoder primed for different units, computes directly); the
// register access sequence — one read, one write — and the programmed bits
// are the same either way, so fault countdowns and journals advance alike.
func (d *Domain) SetLimitCached(l Limit, enc *LimitEncoder) error {
	if l.Power < 0 {
		return fmt.Errorf("rapl: negative power limit %v", l.Power)
	}
	field, window, ok := enc.fields(l, d.units)
	if !ok {
		field = encodePowerField(l.Power, d.units.PowerUnit)
		window = encodeTimeWindow(l.TimeWindow, d.units.TimeUnit)
	}
	reg, err := d.dev.Read(msr.MSRPkgPowerLimit)
	if err != nil {
		return err
	}
	reg = msr.InsertBits(reg, pl1PowerHi, pl1PowerLo, field)
	reg = msr.InsertBits(reg, pl1EnableBit, pl1EnableBit, boolBit(l.Enabled))
	reg = msr.InsertBits(reg, pl1ClampBit, pl1ClampBit, boolBit(l.Clamped))
	reg = msr.InsertBits(reg, pl1WindowHi, pl1WindowLo, window)
	if err := d.dev.Write(msr.MSRPkgPowerLimit, reg); err != nil {
		return err
	}
	d.sink.MSRWrite()
	return nil
}

// ReadLimitPower decodes the current PL1 power from one register read,
// without decoding the time window. Control loops call it once per host
// per iteration.
func (d *Domain) ReadLimitPower() (units.Power, error) {
	reg, err := d.dev.Read(msr.MSRPkgPowerLimit)
	if err != nil {
		return 0, err
	}
	return d.limitPower(reg), nil
}

// limitPower decodes the PL1 power field of an MSR_PKG_POWER_LIMIT word.
func (d *Domain) limitPower(reg uint64) units.Power {
	return units.Power(float64(msr.ExtractBits(reg, pl1PowerHi, pl1PowerLo))) * units.Power(float64(d.units.PowerUnit))
}

// ReadEnergy returns the total package energy consumed since the domain
// was bound, handling 32-bit counter wraparound. Call it at least once per
// wrap period (minutes at TDP with 15.3 uJ units); the simulation loop
// reads every control period, far more often.
func (d *Domain) ReadEnergy() (units.Energy, error) {
	raw, err := d.dev.Read(msr.MSRPkgEnergyStatus)
	if err != nil {
		return 0, err
	}
	e, wrapped := d.pkg.update(raw, d.units.EnergyUnit)
	if wrapped {
		d.sink.EnergyWrap("pkg", d.sinkHost)
	}
	return e, nil
}

// ReadDRAMEnergy returns the accumulated DRAM-domain energy. On this
// platform the DRAM domain is measurable but not cappable — telemetry
// only, exactly as the paper scopes its study to CPU power.
func (d *Domain) ReadDRAMEnergy() (units.Energy, error) {
	raw, err := d.dev.Read(msr.MSRDramEnergyStatus)
	if err != nil {
		return 0, err
	}
	e, wrapped := d.dram.update(raw, d.units.EnergyUnit)
	if wrapped {
		d.sink.EnergyWrap("dram", d.sinkHost)
	}
	return e, nil
}

// EnergyUnit returns the energy of one energy-counter LSB, decoded from
// MSR_RAPL_POWER_UNIT. Domains with equal units encode every energy
// alike, so the hardware model encodes an amount once for all of them.
func (d *Domain) EnergyUnit() units.Energy { return d.units.EnergyUnit }

// EncodeEnergyDelta converts an energy amount into energy-counter LSBs, used
// by the hardware model to advance the accumulator.
func (d *Domain) EncodeEnergyDelta(e units.Energy) uint64 {
	if e <= 0 {
		return 0
	}
	return uint64(math.Round(float64(e) / float64(d.units.EnergyUnit)))
}

// encodeTimeWindow encodes a duration into the SDM's 7-bit PL1 window
// field: bits 4:0 hold an exponent Y and bits 6:5 a fractional part Z, with
// window = 2^Y * (1 + Z/4) * timeUnit. The encoder picks the representable
// value closest to the request; zero requests zero (hardware default).
func encodeTimeWindow(w time.Duration, unit time.Duration) uint64 {
	if w <= 0 {
		return 0
	}
	target := float64(w) / float64(unit)
	best := uint64(0)
	bestErr := math.Inf(1)
	for y := uint64(0); y < 32; y++ {
		for z := uint64(0); z < 4; z++ {
			val := windowValue(y, z)
			if err := math.Abs(val - target); err < bestErr {
				bestErr = err
				best = z<<5 | y
			}
		}
	}
	return best
}

// windowValue is the window multiplier 2^y * (1 + z/4). Scaling the
// mantissa by a power of two is exact, so Ldexp returns exactly what
// math.Pow(2, y) * (1 + z/4) does, without a Pow call per candidate.
func windowValue(y, z uint64) float64 {
	return math.Ldexp(1+float64(z)/4, int(y))
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ProgramDefaults initializes a fresh simulated device with the Broadwell
// unit register and the package power info for the given socket parameters.
// The hardware model calls this when a node powers on.
func ProgramDefaults(dev *msr.Device, tdp, minPower, maxPower units.Power) {
	dev.PrivilegedWrite(msr.MSRRaplPowerUnit, DefaultUnitsRegister)
	enc := func(p units.Power) uint64 {
		return uint64(math.Round(float64(p) / float64(defaultUnits.PowerUnit)))
	}
	info := enc(tdp) & 0x7FFF
	info |= (enc(minPower) & 0x7FFF) << 16
	info |= (enc(maxPower) & 0x7FFF) << 32
	dev.PrivilegedWrite(msr.MSRPkgPowerInfo, info)
	// Power on with PL1 = TDP, enabled and clamped, 1 s window — the
	// firmware default the paper's uncapped runs observe.
	reg := msr.InsertBits(0, pl1PowerHi, pl1PowerLo, enc(tdp))
	reg = msr.InsertBits(reg, pl1EnableBit, pl1EnableBit, 1)
	reg = msr.InsertBits(reg, pl1ClampBit, pl1ClampBit, 1)
	reg = msr.InsertBits(reg, pl1WindowHi, pl1WindowLo, defaultWindowField)
	dev.PrivilegedWrite(msr.MSRPkgPowerLimit, reg)
}

// defaultUnits and defaultWindowField are the power-on unit scheme and its
// 1 s PL1 window encoding. Both are functions of constants, so every socket
// a cluster powers on shares one time-window search instead of running its
// own.
var (
	defaultUnits       = DecodeUnits(DefaultUnitsRegister)
	defaultWindowField = encodeTimeWindow(time.Second, defaultUnits.TimeUnit)
)
