package units

import (
	"fmt"
	"strconv"
	"strings"
)

// ParsePower parses strings like "120W", "95.5 W", "216kW", "1.35 MW" into
// a Power. A bare number is watts.
func ParsePower(s string) (Power, error) {
	value, unit, err := splitQuantity(s)
	if err != nil {
		return 0, fmt.Errorf("units: parsing power %q: %w", s, err)
	}
	switch strings.ToLower(unit) {
	case "", "w":
		return Power(value), nil
	case "mw":
		// Case decides: "mW" milliwatt vs "MW" megawatt.
		if strings.Contains(unit, "M") {
			return Power(value) * Megawatt, nil
		}
		return Power(value) * Milliwatt, nil
	case "kw":
		return Power(value) * Kilowatt, nil
	default:
		return 0, fmt.Errorf("units: parsing power %q: unknown unit %q", s, unit)
	}
}

// splitQuantity separates "12.5 kW" into (12.5, "kW"); the space is
// optional and the unit may be empty.
func splitQuantity(s string) (float64, string, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, "", fmt.Errorf("empty quantity")
	}
	cut := len(t)
	for i, r := range t {
		if (r >= '0' && r <= '9') || r == '.' || r == '-' || r == '+' || r == 'e' || r == 'E' {
			continue
		}
		// 'e'/'E' only belong to the number when followed by a digit or
		// sign; a trailing "E" starts a unit. Handled by re-parsing below.
		cut = i
		break
	}
	num := strings.TrimSpace(t[:cut])
	unit := strings.TrimSpace(t[cut:])
	value, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, "", fmt.Errorf("bad number %q", num)
	}
	return value, unit, nil
}
