package units

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// ParseFrequency parses strings like "2.1GHz", "2100 MHz", "1800000 kHz"
// into a Frequency. A bare number is hertz.
func ParseFrequency(s string) (Frequency, error) {
	value, unit, err := splitQuantity(s)
	if err != nil {
		return 0, fmt.Errorf("units: parsing frequency %q: %w", s, err)
	}
	switch strings.ToLower(unit) {
	case "", "hz":
		return Frequency(value), nil
	case "khz":
		return Frequency(value) * Kilohertz, nil
	case "mhz":
		return Frequency(value) * Megahertz, nil
	case "ghz":
		return Frequency(value) * Gigahertz, nil
	default:
		return 0, fmt.Errorf("units: parsing frequency %q: unknown unit %q", s, unit)
	}
}

// ParseEnergy parses strings like "15.3uJ", "9.8 kJ", "1.2MJ", "3 Wh".
// A bare number is joules.
func ParseEnergy(s string) (Energy, error) {
	value, unit, err := splitQuantity(s)
	if err != nil {
		return 0, fmt.Errorf("units: parsing energy %q: %w", s, err)
	}
	switch strings.ToLower(unit) {
	case "", "j":
		return Energy(value), nil
	case "uj", "µj":
		return Energy(value) * Microjoule, nil
	case "kj":
		return Energy(value) * Kilojoule, nil
	case "mj":
		return Energy(value) * Megajoule, nil
	case "wh":
		return Energy(value) * WattHour, nil
	case "kwh":
		return Energy(value) * KilowattHour, nil
	default:
		return 0, fmt.Errorf("units: parsing energy %q: unknown unit %q", s, unit)
	}
}

func TestParsePower(t *testing.T) {
	cases := []struct {
		in   string
		want float64 // watts
	}{
		{"120", 120},
		{"120W", 120},
		{"95.5 W", 95.5},
		{"216kW", 216000},
		{"216 kW", 216000},
		{"1.35 MW", 1.35e6},
		{"250mW", 0.25},
		{"-5 W", -5},
		{"1e3 W", 1000},
	}
	for _, c := range cases {
		got, err := ParsePower(c.in)
		if err != nil {
			t.Errorf("ParsePower(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got.Watts()-c.want) > 1e-9*math.Max(1, math.Abs(c.want)) {
			t.Errorf("ParsePower(%q) = %v, want %v", c.in, got.Watts(), c.want)
		}
	}
	for _, bad := range []string{"", "watts", "12 parsec", "1.2.3 W", "kW"} {
		if _, err := ParsePower(bad); err == nil {
			t.Errorf("ParsePower(%q) accepted", bad)
		}
	}
}

func TestParseFrequency(t *testing.T) {
	cases := []struct {
		in   string
		want float64 // hertz
	}{
		{"2100000000", 2.1e9},
		{"2.1GHz", 2.1e9},
		{"2100 MHz", 2.1e9},
		{"2100000 kHz", 2.1e9},
		{"60 Hz", 60},
	}
	for _, c := range cases {
		got, err := ParseFrequency(c.in)
		if err != nil {
			t.Errorf("ParseFrequency(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got.Hz()-c.want) > 1e-3 {
			t.Errorf("ParseFrequency(%q) = %v, want %v", c.in, got.Hz(), c.want)
		}
	}
	if _, err := ParseFrequency("2.1 THz"); err == nil {
		t.Error("unknown unit accepted")
	}
}

func TestParseEnergy(t *testing.T) {
	cases := []struct {
		in   string
		want float64 // joules
	}{
		{"42", 42},
		{"42J", 42},
		{"15.3uJ", 15.3e-6},
		{"9.8 kJ", 9800},
		{"1.2MJ", 1.2e6},
		{"1 Wh", 3600},
		{"2 kWh", 7.2e6},
	}
	for _, c := range cases {
		got, err := ParseEnergy(c.in)
		if err != nil {
			t.Errorf("ParseEnergy(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got.Joules()-c.want) > 1e-9*math.Max(1, c.want) {
			t.Errorf("ParseEnergy(%q) = %v, want %v", c.in, got.Joules(), c.want)
		}
	}
	if _, err := ParseEnergy("3 BTU"); err == nil {
		t.Error("unknown unit accepted")
	}
}

func TestParseRoundTripsString(t *testing.T) {
	// The String renderings of common quantities must parse back to the
	// same value (within format precision).
	for _, p := range []Power{120 * Watt, 216 * Kilowatt, 1.35 * Megawatt} {
		got, err := ParsePower(p.String())
		if err != nil {
			t.Errorf("ParsePower(%q): %v", p.String(), err)
			continue
		}
		if math.Abs(got.Watts()-p.Watts()) > 0.01*p.Watts() {
			t.Errorf("round trip %q = %v", p.String(), got)
		}
	}
	for _, f := range []Frequency{2.1 * Gigahertz, 100 * Megahertz} {
		got, err := ParseFrequency(f.String())
		if err != nil {
			t.Errorf("ParseFrequency(%q): %v", f.String(), err)
			continue
		}
		if math.Abs(got.Hz()-f.Hz()) > 0.01*f.Hz() {
			t.Errorf("round trip %q = %v", f.String(), got)
		}
	}
}
