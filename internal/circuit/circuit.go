// Package circuit models Quetzal's power-measurement hardware module
// (paper §5.1, Figure 6): two diodes, a multiplexer and an 8-bit ADC that
// together let a microcontroller evaluate the P_exe/P_in ratio — and with it
// the end-to-end service time S_e2e = max(t_exe, t_exe·P_exe/P_in) — without
// any division.
//
// Physics: for a diode carrying current I, the Diode Law gives
//
//	V_d = (kT/q) · ln(I/I₀)
//
// so the difference of two diode voltages measured at the same temperature
// encodes the log of the current ratio:
//
//	V_D2 − V_D1 = (kT/q) · ln(I_exe/I_in)  ⇒  I_exe/I_in = 2^{c·(d2−d1)}
//
// where d1, d2 are 8-bit ADC codes and c = q·log₂(e)·V_ADCMax/(k·T·255).
// Choosing V_ADCMax = 0.6 V makes c ≈ 1/8 for temperatures between 25–50 °C,
// which the hardware hard-codes: the integer part of (d2−d1)/8 becomes a
// shift, the fractional part (eight possible values) indexes a table of
// pre-multiplied t_exe values. The full S_e2e computation is then one
// subtraction, one lookup, two shifts and one multiplication (Algorithm 3).
package circuit

import (
	"fmt"
	"math"
)

// Physical constants (SI).
const (
	Boltzmann        = 1.380649e-23    // J/K
	ElementaryCharge = 1.602176634e-19 // C
)

// DefaultMeasLatencyUS is the controller latency of one sample on the
// module's ADC path (multiplexer settle + 8-bit conversion + the MCU read),
// in the integer units the fault layer's Spec carries. Ashraf et al. (arXiv
// 2508.08757) show this cost is far from negligible on harvesting-class
// nodes.
const DefaultMeasLatencyUS = 20

// CelsiusToKelvin converts a temperature.
func CelsiusToKelvin(c float64) float64 { return c + 273.15 }

// Diode models an ideal-diode-law junction with saturation current ISat.
type Diode struct {
	ISat float64 // saturation current I₀ in amperes
}

// Voltage returns the forward voltage at the given current and temperature.
// Currents at or below zero return 0 (diode off).
func (d Diode) Voltage(current, tempK float64) float64 {
	if current <= 0 {
		return 0
	}
	return Boltzmann * tempK / ElementaryCharge * math.Log(current/d.ISat)
}

// Current returns the forward current at the given voltage and temperature.
func (d Diode) Current(voltage, tempK float64) float64 {
	return d.ISat * math.Exp(voltage*ElementaryCharge/(Boltzmann*tempK))
}

// ADC is an n-bit analog-to-digital converter over [0, VMax].
type ADC struct {
	Bits int     // resolution; the paper's module uses 8
	VMax float64 // full-scale voltage; the paper selects 0.6 V
}

// Levels returns the number of quantisation steps minus one (255 for 8-bit).
func (a ADC) Levels() int { return 1<<uint(a.Bits) - 1 }

// Code converts a voltage to the nearest ADC code, clamped to range.
func (a ADC) Code(v float64) uint8 {
	lv := float64(a.Levels())
	code := math.Round(v / a.VMax * lv)
	if code < 0 {
		code = 0
	}
	if code > lv {
		code = lv
	}
	return uint8(code)
}

// Voltage converts an ADC code back to volts (code center).
func (a ADC) Voltage(code uint8) float64 {
	return float64(code) / float64(a.Levels()) * a.VMax
}

// Config describes one hardware module instance.
type Config struct {
	DiodeISat    float64 // saturation current of the matched diode pair
	ADCBits      int
	ADCVMax      float64
	SenseVoltage float64 // common voltage at which both currents are sensed
	TempC        float64 // ambient temperature at construction
}

// DefaultConfig matches the paper's module: 8-bit ADC, V_ADCMax = 0.6 V,
// diode pair like the SDM40E20LC, measurements referenced to a 2 V rail.
func DefaultConfig() Config {
	return Config{
		DiodeISat:    2e-9, // typical small Schottky saturation current
		ADCBits:      8,
		ADCVMax:      0.6,
		SenseVoltage: 2.0,
		TempC:        25,
	}
}

// Module is the simulated hardware module. The multiplexer of Figure 6 is
// modelled by the choice of method: CodeForPower plays the role of selecting
// V_in/V_cap (input path, diode D1) or V_exe (execution path, diode D2) and
// reading the 8-bit conversion.
type Module struct {
	diode Diode
	adc   ADC
	vRef  float64
	tempK float64
}

// New builds a module from cfg. It panics on non-physical configuration.
func New(cfg Config) *Module {
	if cfg.DiodeISat <= 0 {
		panic(fmt.Sprintf("circuit: diode saturation current must be positive, got %g", cfg.DiodeISat))
	}
	if cfg.ADCBits <= 0 || cfg.ADCBits > 16 {
		panic(fmt.Sprintf("circuit: ADC bits must be in (0,16], got %d", cfg.ADCBits))
	}
	if cfg.ADCVMax <= 0 || cfg.SenseVoltage <= 0 {
		panic(fmt.Sprintf("circuit: voltages must be positive (VMax=%g, sense=%g)", cfg.ADCVMax, cfg.SenseVoltage))
	}
	return &Module{
		diode: Diode{ISat: cfg.DiodeISat},
		adc:   ADC{Bits: cfg.ADCBits, VMax: cfg.ADCVMax},
		vRef:  cfg.SenseVoltage,
		tempK: CelsiusToKelvin(cfg.TempC),
	}
}

// SetTemperature updates the junction temperature in °C. The paper
// characterises the module between 25 and 50 °C.
func (m *Module) SetTemperature(tempC float64) { m.tempK = CelsiusToKelvin(tempC) }

// CodeForPower converts a power draw (or harvest) in watts into the 8-bit
// ADC code the MCU would read for the corresponding diode voltage. This is
// the full measurement path: power → current at the sense voltage → diode
// forward voltage at the current temperature → quantised ADC code.
func (m *Module) CodeForPower(power float64) uint8 {
	if power <= 0 {
		return 0
	}
	i := power / m.vRef
	return m.adc.Code(m.diode.Voltage(i, m.tempK))
}

// PowerForCode inverts CodeForPower (up to quantisation); used by tests.
func (m *Module) PowerForCode(code uint8) float64 {
	v := m.adc.Voltage(code)
	return m.diode.Current(v, m.tempK) * m.vRef
}

// ExponentFactor returns the true per-code exponent factor
// c(T) = q·log₂(e)·V_ADCMax / (k·T·levels); the hardware assumes c = 1/8.
func (m *Module) ExponentFactor() float64 {
	return ElementaryCharge * math.Log2(math.E) * m.adc.VMax /
		(Boltzmann * m.tempK * float64(m.adc.Levels()))
}

// HardwareRatio evaluates the module's division-free approximation of
// I_exe/I_in = 2^{(d2−d1)/8} from two ADC codes, exactly as the MCU computes
// it: shift for the integer part, eight-entry lookup for the fraction. Codes
// with d2 ≤ d1 mean P_exe ≤ P_in (compute-bound) and return 1.
func HardwareRatio(d1, d2 uint8) float64 {
	if d2 <= d1 {
		return 1
	}
	delta := int(d2) - int(d1)
	return frac8[delta&0x07] * float64(uint64(1)<<uint(delta>>3))
}

// frac8[i] = 2^{i/8}, the eight pre-computed fractional-exponent multipliers
// (paper: "b can only take eight possible values (0, 0.125, ..)").
var frac8 = [8]float64{
	1.0000000000000000,
	1.0905077326652577, // 2^0.125
	1.1892071150027210, // 2^0.250
	1.2968395546510096, // 2^0.375
	1.4142135623730951, // 2^0.500
	1.5422108254079407, // 2^0.625
	1.6817928305074290, // 2^0.750
	1.8340080864093424, // 2^0.875
}
