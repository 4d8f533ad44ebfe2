package circuit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCelsiusToKelvin(t *testing.T) {
	if got := CelsiusToKelvin(25); got != 298.15 {
		t.Errorf("CelsiusToKelvin(25) = %g, want 298.15", got)
	}
}

func TestDiodeRoundTrip(t *testing.T) {
	d := Diode{ISat: 2e-9}
	for _, i := range []float64{1e-6, 1e-4, 1e-2} {
		v := d.Voltage(i, 298.15)
		back := d.Current(v, 298.15)
		if math.Abs(back-i)/i > 1e-9 {
			t.Errorf("round trip current %g -> %g", i, back)
		}
	}
}

func TestDiodeVoltageMonotonicInCurrent(t *testing.T) {
	d := Diode{ISat: 2e-9}
	prev := -1.0
	for i := 1e-7; i < 1; i *= 3 {
		v := d.Voltage(i, 310)
		if v <= prev {
			t.Errorf("voltage not increasing at I=%g: %g <= %g", i, v, prev)
		}
		prev = v
	}
}

func TestDiodeOffAtNonPositiveCurrent(t *testing.T) {
	d := Diode{ISat: 2e-9}
	if v := d.Voltage(0, 300); v != 0 {
		t.Errorf("Voltage(0) = %g, want 0", v)
	}
	if v := d.Voltage(-1e-3, 300); v != 0 {
		t.Errorf("Voltage(<0) = %g, want 0", v)
	}
}

func TestADCCodeAndVoltage(t *testing.T) {
	a := ADC{Bits: 8, VMax: 0.6}
	if a.Levels() != 255 {
		t.Fatalf("Levels = %d, want 255", a.Levels())
	}
	cases := []struct {
		v    float64
		code uint8
	}{
		{-0.1, 0}, {0, 0}, {0.6, 255}, {1.2, 255}, {0.3, 128} /* 0.3/0.6*255 = 127.5 → round 128 */}
	for _, c := range cases {
		if got := a.Code(c.v); got != c.code {
			t.Errorf("Code(%g) = %d, want %d", c.v, got, c.code)
		}
	}
	if got := a.Voltage(255); got != 0.6 {
		t.Errorf("Voltage(255) = %g, want 0.6", got)
	}
	if got := a.Voltage(0); got != 0 {
		t.Errorf("Voltage(0) = %g, want 0", got)
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{DiodeISat: 0, ADCBits: 8, ADCVMax: 0.6, SenseVoltage: 2},
		{DiodeISat: 1e-9, ADCBits: 0, ADCVMax: 0.6, SenseVoltage: 2},
		{DiodeISat: 1e-9, ADCBits: 17, ADCVMax: 0.6, SenseVoltage: 2},
		{DiodeISat: 1e-9, ADCBits: 8, ADCVMax: 0, SenseVoltage: 2},
		{DiodeISat: 1e-9, ADCBits: 8, ADCVMax: 0.6, SenseVoltage: 0},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestCodeForPowerMonotonic(t *testing.T) {
	m := New(DefaultConfig())
	prev := uint8(0)
	for p := 1e-5; p < 1; p *= 2 {
		code := m.CodeForPower(p)
		if code < prev {
			t.Errorf("code decreased at P=%g: %d < %d", p, code, prev)
		}
		prev = code
	}
	if m.CodeForPower(0) != 0 || m.CodeForPower(-1) != 0 {
		t.Error("non-positive power must read code 0")
	}
}

func TestExponentFactorNearOneEighth(t *testing.T) {
	m := New(DefaultConfig())
	// The paper's design point: with V_ADCMax = 0.6 V the per-code exponent
	// factor is ≈ 1/8 across 25–50 °C.
	for _, tc := range []float64{25, 37.5, 50} {
		m.SetTemperature(tc)
		c := m.ExponentFactor()
		if c < 0.115 || c > 0.14 {
			t.Errorf("at %g°C exponent factor = %g, want ≈ 0.125", tc, c)
		}
	}
}

func TestHardwareRatioIdentityWhenComputeBound(t *testing.T) {
	if r := HardwareRatio(100, 100); r != 1 {
		t.Errorf("HardwareRatio(equal codes) = %g, want 1", r)
	}
	if r := HardwareRatio(100, 50); r != 1 {
		t.Errorf("HardwareRatio(d2<d1) = %g, want 1", r)
	}
}

func TestHardwareRatioPowersOfTwo(t *testing.T) {
	// Δ = 8k should give exactly 2^k.
	for k := 0; k <= 10; k++ {
		want := math.Pow(2, float64(k))
		if got := HardwareRatio(0, uint8(8*k)); got != want {
			t.Errorf("HardwareRatio Δ=%d = %g, want %g", 8*k, got, want)
		}
	}
}

func TestHardwareRatioFractionalSteps(t *testing.T) {
	for delta := 1; delta < 64; delta++ {
		want := math.Pow(2, float64(delta)/8)
		got := HardwareRatio(0, uint8(delta))
		if math.Abs(got-want)/want > 1e-12 {
			t.Errorf("Δ=%d: %g vs exact %g", delta, got, want)
		}
	}
}

// The paper's headline accuracy claim: the module predicts the P_exe/P_in
// ratio with bounded error for temperatures between 25 and 50 °C. The error
// has two sources: ADC quantisation (≤ half a code on each conversion) and
// the hard-coded 1/8 exponent factor vs the true c(T). We characterise both
// over the operating regime the paper's workloads live in (ratio ≤ 4) and
// assert the error stays within 10 %, with the ≤ 5.5 % band holding at the
// design-point temperature. EXPERIMENTS.md records the measured maxima.
func TestRatioErrorBounded(t *testing.T) {
	m := New(DefaultConfig())
	var sumDesign, sumRange float64
	var nDesign, nRange int
	maxErrRange := 0.0
	for _, tempC := range []float64{25, 30, 35, 40, 42, 45, 50} {
		m.SetTemperature(tempC)
		for pin := 1e-3; pin <= 0.2; pin *= 1.17 {
			for ratio := 1.05; ratio <= 4.0; ratio *= 1.13 {
				pexe := pin * ratio
				d1 := m.CodeForPower(pin)
				d2 := m.CodeForPower(pexe)
				if d1 == 0 || d2 >= 255 {
					continue // outside the module's dynamic range
				}
				got := HardwareRatio(d1, d2)
				relErr := math.Abs(got-ratio) / ratio
				if tempC == 42 {
					sumDesign += relErr
					nDesign++
				}
				sumRange += relErr
				nRange++
				if relErr > maxErrRange {
					maxErrRange = relErr
				}
			}
		}
	}
	meanDesign := sumDesign / float64(nDesign)
	meanRange := sumRange / float64(nRange)
	// Mean error at the design-point temperature must satisfy the paper's
	// ≤ 5.5 % figure; the worst single sample is bounded by the two-sided
	// ADC quantisation limit 2^{1.5/8}−1 ≈ 13.9 % plus temperature drift.
	if meanDesign > 0.055 {
		t.Errorf("design-point (42°C) mean ratio error = %.4f, want ≤ 0.055", meanDesign)
	}
	if meanRange > 0.075 {
		t.Errorf("25–50°C mean ratio error = %.4f, want ≤ 0.075", meanRange)
	}
	if maxErrRange > 0.15 {
		t.Errorf("25–50°C max ratio error = %.4f, want ≤ 0.15 (quantisation bound)", maxErrRange)
	}
	t.Logf("ratio error: design-point mean %.4f, 25–50°C mean %.4f, max %.4f",
		meanDesign, meanRange, maxErrRange)
}

func TestSeTableValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSeTable(texe<=0) did not panic")
		}
	}()
	NewSeTable(0, 10)
}

func TestSe2eComputeBound(t *testing.T) {
	tab := NewSeTable(1.5, 80)
	// Input power at or above execution power: S_e2e = t_exe.
	for _, d1 := range []uint8{80, 81, 255} {
		if got := tab.Se2e(d1); got != 1.5 {
			t.Errorf("Se2e(d1=%d) = %g, want t_exe 1.5", d1, got)
		}
	}
	if tab.Texe() != 1.5 {
		t.Errorf("Texe = %g, want 1.5", tab.Texe())
	}
}

func TestSe2eChargeBound(t *testing.T) {
	tab := NewSeTable(2.0, 96)
	// Δ = 16 → ratio 2^2 = 4 → S_e2e = 8.
	if got := tab.Se2e(80); got != 8 {
		t.Errorf("Se2e = %g, want 8", got)
	}
	// Δ = 11 → 2^(11/8) = 2 * 2^(3/8).
	want := 2.0 * math.Pow(2, 11.0/8)
	if got := tab.Se2e(85); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("Se2e = %g, want %g", got, want)
	}
}

func TestSe2eMatchesHardwareRatio(t *testing.T) {
	tab := NewSeTable(3.0, 200)
	for d1 := uint8(0); d1 < 255; d1 += 7 {
		want := 3.0 * HardwareRatio(d1, 200)
		if got := tab.Se2e(d1); math.Abs(got-want) > 1e-9*want {
			t.Errorf("d1=%d: Se2e=%g, want %g", d1, got, want)
		}
	}
}

func TestSe2eExact(t *testing.T) {
	if got := Se2eExact(2, 0.01, 0.02); got != 2 {
		t.Errorf("compute-bound exact = %g, want 2", got)
	}
	if got := Se2eExact(2, 0.04, 0.01); got != 8 {
		t.Errorf("charge-bound exact = %g, want 8", got)
	}
	if got := Se2eExact(2, 0.04, 0); !(got > 1e6) {
		t.Errorf("zero input power must give a huge sentinel, got %g", got)
	}
}

// Property: the hardware S_e2e is always ≥ t_exe (recharging can only make a
// job slower, never faster) and monotonically non-increasing in d1 (more
// input power → shorter service time).
func TestPropertySe2eMonotone(t *testing.T) {
	f := func(texeRaw uint16, d2 uint8) bool {
		texe := float64(texeRaw%5000)/1000 + 0.001
		tab := NewSeTable(texe, d2)
		prev := math.Inf(1)
		for d1 := 0; d1 <= 255; d1++ {
			s := tab.Se2e(uint8(d1))
			if s < texe*(1-1e-12) {
				return false
			}
			if s > prev*(1+1e-12) {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: HardwareRatio approximates 2^{Δ/8} exactly for every Δ.
func TestPropertyHardwareRatioExactForm(t *testing.T) {
	f := func(d1, d2 uint8) bool {
		got := HardwareRatio(d1, d2)
		if d2 <= d1 {
			return got == 1
		}
		want := math.Pow(2, float64(int(d2)-int(d1))/8)
		return math.Abs(got-want)/want < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// The two S_e2e paths on the host; the MCU cycle anchors live in
// internal/device (a desktop CPU divides faster than it indexes a table,
// the opposite of the MSP430).
func BenchmarkHardwareSe2e(b *testing.B) {
	tab := NewSeTable(1.25, 180)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += tab.Se2e(uint8(i))
	}
	_ = sink
}

func BenchmarkSoftwareDivisionSe2e(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Se2eExact(1.25, 0.05, float64(i%200)*1e-4+1e-4)
	}
	_ = sink
}
