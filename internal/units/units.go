// Package units defines the physical quantities used throughout the power
// management stack: power, energy, frequency, and data volume/rate.
//
// All quantities are represented as float64 in SI base units (watts, joules,
// hertz, bytes, bytes per second). Named constructors and String methods keep
// call sites readable without paying for a heavier dimensional-analysis
// framework: the stack performs millions of quantity operations per simulated
// second, so the types must compile down to plain float64 arithmetic.
package units

import (
	"fmt"
	"math"
)

// Power is an instantaneous power draw in watts.
type Power float64

// Common power scales.
const (
	Watt      Power = 1
	Milliwatt Power = 1e-3
	Kilowatt  Power = 1e3
	Megawatt  Power = 1e6
)

// Watts returns p as a plain float64 in watts.
func (p Power) Watts() float64 { return float64(p) }

// Kilowatts returns p in kilowatts.
func (p Power) Kilowatts() float64 { return float64(p) / 1e3 }

// Megawatts returns p in megawatts.
func (p Power) Megawatts() float64 { return float64(p) / 1e6 }

// String formats the power with an auto-selected scale.
func (p Power) String() string {
	abs := math.Abs(float64(p))
	switch {
	case abs >= 1e6:
		return fmt.Sprintf("%.3g MW", p.Megawatts())
	case abs >= 1e3:
		return fmt.Sprintf("%.4g kW", p.Kilowatts())
	case abs >= 1 || abs == 0:
		return fmt.Sprintf("%.4g W", p.Watts())
	default:
		return fmt.Sprintf("%.4g mW", float64(p)/1e-3)
	}
}

// Energy is an amount of energy in joules.
type Energy float64

// Common energy scales.
const (
	Joule         Energy = 1
	Microjoule    Energy = 1e-6
	Kilojoule     Energy = 1e3
	Megajoule     Energy = 1e6
	WattHour      Energy = 3600
	KilowattHour  Energy = 3.6e6
	MegajouleHour Energy = 3.6e9 // MWh; named for symmetry with KilowattHour
)

// Joules returns e as a plain float64 in joules.
func (e Energy) Joules() float64 { return float64(e) }

// Kilojoules returns e in kilojoules.
func (e Energy) Kilojoules() float64 { return float64(e) / 1e3 }

// String formats the energy with an auto-selected scale.
func (e Energy) String() string {
	abs := math.Abs(float64(e))
	switch {
	case abs >= 1e6:
		return fmt.Sprintf("%.4g MJ", float64(e)/1e6)
	case abs >= 1e3:
		return fmt.Sprintf("%.4g kJ", e.Kilojoules())
	default:
		return fmt.Sprintf("%.4g J", e.Joules())
	}
}

// Frequency is a clock frequency in hertz.
type Frequency float64

// Common frequency scales.
const (
	Hertz     Frequency = 1
	Kilohertz Frequency = 1e3
	Megahertz Frequency = 1e6
	Gigahertz Frequency = 1e9
)

// Hz returns f as a plain float64 in hertz.
func (f Frequency) Hz() float64 { return float64(f) }

// GHz returns f in gigahertz.
func (f Frequency) GHz() float64 { return float64(f) / 1e9 }

// MHz returns f in megahertz.
func (f Frequency) MHz() float64 { return float64(f) / 1e6 }

// String formats the frequency with an auto-selected scale.
func (f Frequency) String() string {
	abs := math.Abs(float64(f))
	switch {
	case abs >= 1e9:
		return fmt.Sprintf("%.4g GHz", f.GHz())
	case abs >= 1e6:
		return fmt.Sprintf("%.4g MHz", f.MHz())
	case abs >= 1e3:
		return fmt.Sprintf("%.4g kHz", float64(f)/1e3)
	default:
		return fmt.Sprintf("%.4g Hz", f.Hz())
	}
}

// Bytes is a data volume in bytes.
type Bytes float64

// Common data-volume scales (binary prefixes, per HPC convention for cache
// sizes; bandwidth ceilings below use decimal GB/s as the paper does).
const (
	Byte     Bytes = 1
	Kibibyte Bytes = 1 << 10
	Mebibyte Bytes = 1 << 20
	Gibibyte Bytes = 1 << 30
)

// BytesPerSecond is a data rate.
type BytesPerSecond float64

// Common data-rate scales. The paper reports cache and DRAM bandwidth in
// decimal GB/s (Intel Advisor convention), so GBPerSecond is 1e9 B/s.
const (
	BytePerSecond BytesPerSecond = 1
	GBPerSecond   BytesPerSecond = 1e9
)

// GBs returns the rate in decimal gigabytes per second.
func (r BytesPerSecond) GBs() float64 { return float64(r) / 1e9 }

// String formats the rate in GB/s.
func (r BytesPerSecond) String() string { return fmt.Sprintf("%.4g GB/s", r.GBs()) }

// Flops is a count of floating-point operations.
type Flops float64

// FlopsPerSecond is a floating-point throughput.
type FlopsPerSecond float64

// Common throughput scales.
const (
	FlopPerSecond FlopsPerSecond = 1
	Gigaflops     FlopsPerSecond = 1e9
	Teraflops     FlopsPerSecond = 1e12
)

// GFLOPS returns the throughput in gigaflops.
func (f FlopsPerSecond) GFLOPS() float64 { return float64(f) / 1e9 }

// String formats the throughput in GFLOPS.
func (f FlopsPerSecond) String() string { return fmt.Sprintf("%.4g GFLOPS", f.GFLOPS()) }
