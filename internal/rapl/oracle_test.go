package rapl

import (
	"time"

	"powerstack/internal/msr"
	"powerstack/internal/units"
)

// Reference decoders: the full PL1 decode (power, window, enable and clamp
// bits) and the fused power-info decode that the tests check the register
// encodings against, and SetLimit, the uncached write SetLimitCached must
// match. Production code reads back only the PL1 power (ReadLimitPower).

// SetLimit programs PL1 in MSR_PKG_POWER_LIMIT. The power is quantized to
// the power unit and the window to the time unit, as on hardware.
func (d *Domain) SetLimit(l Limit) error {
	return d.SetLimitCached(l, nil)
}

// ReadLimit decodes the current PL1 setting.
func (d *Domain) ReadLimit() (Limit, error) {
	reg, err := d.dev.Read(msr.MSRPkgPowerLimit)
	if err != nil {
		return Limit{}, err
	}
	return Limit{
		Power:      d.limitPower(reg),
		TimeWindow: decodeTimeWindow(msr.ExtractBits(reg, pl1WindowHi, pl1WindowLo), d.units.TimeUnit),
		Enabled:    msr.ExtractBits(reg, pl1EnableBit, pl1EnableBit) == 1,
		Clamped:    msr.ExtractBits(reg, pl1ClampBit, pl1ClampBit) == 1,
	}, nil
}

// PowerInfo reports the fused package power parameters from
// MSR_PKG_POWER_INFO.
type PowerInfo struct {
	TDP      units.Power
	MinPower units.Power
	MaxPower units.Power
}

// ReadPowerInfo decodes MSR_PKG_POWER_INFO.
func (d *Domain) ReadPowerInfo() (PowerInfo, error) {
	reg, err := d.dev.Read(msr.MSRPkgPowerInfo)
	if err != nil {
		return PowerInfo{}, err
	}
	u := float64(d.units.PowerUnit)
	return PowerInfo{
		TDP:      units.Power(float64(msr.ExtractBits(reg, 14, 0)) * u),
		MinPower: units.Power(float64(msr.ExtractBits(reg, 30, 16)) * u),
		MaxPower: units.Power(float64(msr.ExtractBits(reg, 46, 32)) * u),
	}, nil
}

// decodeTimeWindow inverts encodeTimeWindow.
func decodeTimeWindow(field uint64, unit time.Duration) time.Duration {
	y := field & 0x1F
	z := (field >> 5) & 0x3
	return time.Duration(windowValue(y, z) * float64(unit))
}
