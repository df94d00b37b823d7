package rapl

import (
	"testing"
	"time"

	"powerstack/internal/msr"
	"powerstack/internal/units"
)

// BenchmarkSetLimitCached is the scale replan hot path: programming PL1
// through a primed LimitEncoder. CI gates this benchmark on 0 allocs/op —
// a cached cap write must stay a pure register transaction.
func BenchmarkSetLimitCached(b *testing.B) {
	dev := msr.NewDevice(nil)
	ProgramDefaults(dev, 120*units.Watt, 68*units.Watt, 180*units.Watt)
	d, err := NewDomain(dev)
	if err != nil {
		b.Fatal(err)
	}
	// A replan cycles a handful of distinct wattages across the pool; prime
	// them all before measuring.
	watts := []units.Power{90 * units.Watt, 120 * units.Watt, 150 * units.Watt, 165 * units.Watt}
	var enc LimitEncoder
	for _, w := range watts {
		l := Limit{Power: w, TimeWindow: time.Second, Enabled: true, Clamped: true}
		if err := d.SetLimitCached(l, &enc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := Limit{Power: watts[i%len(watts)], TimeWindow: time.Second, Enabled: true, Clamped: true}
		if err := d.SetLimitCached(l, &enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSetLimitUncached is the cost of the same write without an
// encoder: every call re-derives the power field and brute-forces the
// time-window encoding. The ratio against BenchmarkSetLimitCached is the
// per-write saving the cached encoder banks.
func BenchmarkSetLimitUncached(b *testing.B) {
	dev := msr.NewDevice(nil)
	ProgramDefaults(dev, 120*units.Watt, 68*units.Watt, 180*units.Watt)
	d, err := NewDomain(dev)
	if err != nil {
		b.Fatal(err)
	}
	watts := []units.Power{90 * units.Watt, 120 * units.Watt, 150 * units.Watt, 165 * units.Watt}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := Limit{Power: watts[i%len(watts)], TimeWindow: time.Second, Enabled: true, Clamped: true}
		if err := d.SetLimit(l); err != nil {
			b.Fatal(err)
		}
	}
}
