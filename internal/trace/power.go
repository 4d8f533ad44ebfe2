// Package trace generates the two environmental inputs the paper's
// evaluation feeds its experiments (§6.2–6.4): a harvestable-power trace and
// a sensing-event activity trace.
//
// The paper drives a programmable supply from a real solar measurement
// dataset (Gorlatova et al. [32]) and draws event durations/interarrivals
// from a surveillance video dataset (VIRAT [67]). Neither dataset ships with
// this reproduction, so both are substituted with synthetic generators that
// preserve the properties the system under test actually reacts to:
//
//   - input power that varies over orders of magnitude on two time scales —
//     a slow diurnal envelope and fast cloud-driven attenuation (an
//     Ornstein–Uhlenbeck process), plus sensor noise; and
//   - alternating busy/idle event activity with heavy-tailed (log-normal)
//     event durations capped by the per-environment maximum (Table 1:
//     600/60/20 s) and exponential interarrival gaps.
//
// All generation is deterministic given a seed.
package trace

import (
	"fmt"
	"math"

	"quetzal/internal/randsrc"
)

// PowerTrace yields harvestable input power (watts) as a function of
// simulation time (seconds).
type PowerTrace interface {
	Power(t float64) float64
}

// Constant is a fixed-power trace, useful in tests and calibration.
type Constant struct{ P float64 }

// Power returns the constant power level.
func (c Constant) Power(float64) float64 { return c.P }

// SquareWave alternates between High (for Duty·Period) and Low.
type SquareWave struct {
	High, Low float64
	Period    float64
	Duty      float64 // fraction of the period at High, in [0,1]
}

// Power returns High during the duty window of each period, Low otherwise.
func (s SquareWave) Power(t float64) float64 {
	if s.Period <= 0 {
		return s.High
	}
	phase := math.Mod(t, s.Period)
	if phase < 0 {
		phase += s.Period
	}
	if phase < s.Duty*s.Period {
		return s.High
	}
	return s.Low
}

// Scaled multiplies another trace by a constant factor — used to model
// harvester cell-count scaling (Fig 14 sweeps cells; power scales linearly
// with the number of cells).
type Scaled struct {
	Base   PowerTrace
	Factor float64
}

// Power returns the scaled base power.
func (s Scaled) Power(t float64) float64 { return s.Base.Power(t) * s.Factor }

// Sampled is a trace backed by uniformly spaced samples with linear
// interpolation; times before the first or after the last sample clamp.
type Sampled struct {
	Dt      float64
	Samples []float64
}

// Power interpolates the sample array at time t.
func (s *Sampled) Power(t float64) float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	if len(s.Samples) == 1 || t <= 0 {
		return s.Samples[0]
	}
	x := t / s.Dt
	i := int(x)
	if i >= len(s.Samples)-1 {
		return s.Samples[len(s.Samples)-1]
	}
	frac := x - float64(i)
	return s.Samples[i]*(1-frac) + s.Samples[i+1]*frac
}

// Duration returns the time span covered by the samples.
func (s *Sampled) Duration() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	return float64(len(s.Samples)-1) * s.Dt
}

// SolarConfig parameterises the synthetic solar generator.
type SolarConfig struct {
	// PeakPower is the clear-sky noon output of the reference harvester
	// (the paper's 6-cell array), in watts.
	PeakPower float64
	// DayLength is the full day/night cycle length in seconds. Experiments
	// use a compressed day so multi-hour behaviour fits a tractable run.
	DayLength float64
	// DaylightFraction is the fraction of the cycle with sun above the
	// horizon (default 0.5).
	DaylightFraction float64
	// StartFraction is where in the cycle t=0 falls (0 = sunrise). The
	// default 0.15 starts mid-morning so experiments begin with harvest.
	StartFraction float64
	// CloudTau is the mean-reversion time constant of the cloud process in
	// seconds; CloudDepth scales how strongly clouds attenuate.
	CloudTau, CloudDepth float64
	// NoiseStd is multiplicative sensor/converter noise (fraction).
	NoiseStd float64
	// Duration and SampleDt control the precomputed sample grid.
	Duration, SampleDt float64
	// Seed makes the trace reproducible.
	Seed int64
}

// DefaultSolarConfig returns the configuration used by the experiment
// harness: 250 mW clear-sky peak for the reference 6-cell array, a 2-hour
// compressed day, 40 s cloud correlation time. Cloud attenuation routinely
// pulls the delivered power into the single-digit-milliwatt range, so the
// trace spans the two-orders-of-magnitude dynamic range the paper's
// evaluation exercises.
func DefaultSolarConfig(duration float64, seed int64) SolarConfig {
	return SolarConfig{
		PeakPower: 0.100,
		// The experiment runs inside one daylight period (a morning ramp
		// toward noon): the paper's IBO regime is *low* harvest, not the
		// zero harvest of night, during which no scheduler can act. The
		// day length scales with the experiment so short calibration runs
		// and paper-scale runs see the same envelope shape.
		DayLength:        4 * duration,
		DaylightFraction: 0.5,
		StartFraction:    0.04,
		CloudTau:         60,
		CloudDepth:       0.95,
		NoiseStd:         0.03,
		Duration:         duration,
		SampleDt:         1.0,
		Seed:             seed,
	}
}

// GenerateSolar produces a sampled solar trace from cfg.
// It panics on a non-physical configuration.
func GenerateSolar(cfg SolarConfig) *Sampled {
	if cfg.PeakPower <= 0 || cfg.DayLength <= 0 || cfg.Duration <= 0 || cfg.SampleDt <= 0 {
		panic(fmt.Sprintf("trace: solar config must have positive peak/day/duration/dt, got %+v", cfg))
	}
	if cfg.DaylightFraction <= 0 || cfg.DaylightFraction > 1 {
		panic(fmt.Sprintf("trace: daylight fraction must be in (0,1], got %g", cfg.DaylightFraction))
	}
	rng := randsrc.New(cfg.Seed)
	n := int(cfg.Duration/cfg.SampleDt) + 1
	samples := make([]float64, n)

	// Ornstein–Uhlenbeck cloud state, mean 0, stationary sd ≈ 1.
	x := rng.NormFloat64()
	tau := cfg.CloudTau
	if tau <= 0 {
		tau = 1
	}
	sigma := math.Sqrt(2 / tau)
	for i := 0; i < n; i++ {
		t := float64(i) * cfg.SampleDt
		phase := math.Mod(t/cfg.DayLength+cfg.StartFraction, 1)
		env := 0.0
		if phase < cfg.DaylightFraction {
			env = math.Pow(math.Sin(math.Pi*phase/cfg.DaylightFraction), 1.2)
		}
		// Advance the OU process.
		dt := cfg.SampleDt
		x += (-x/tau)*dt + sigma*math.Sqrt(dt)*rng.NormFloat64()
		atten := 1 - cfg.CloudDepth*sigmoid(x-0.5)
		if atten < 0.02 {
			atten = 0.02
		}
		noise := 1 + cfg.NoiseStd*rng.NormFloat64()
		if noise < 0 {
			noise = 0
		}
		p := cfg.PeakPower * env * atten * noise
		if p < 0 {
			p = 0
		}
		samples[i] = p
	}
	return &Sampled{Dt: cfg.SampleDt, Samples: samples}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// MeanPower returns the average of a trace over [0, duration] sampled at dt,
// a convenience for calibration and for deriving the PZI oracle threshold.
func MeanPower(tr PowerTrace, duration, dt float64) float64 {
	if duration <= 0 || dt <= 0 {
		return 0
	}
	sum, n := 0.0, 0
	for t := 0.0; t <= duration; t += dt {
		sum += tr.Power(t)
		n++
	}
	return sum / float64(n)
}

// MaxPower returns the maximum of a trace over [0, duration] sampled at dt.
// The PZI (idealised Protean/Zygarde) baseline derives its threshold from
// this oracular value (§6.1).
func MaxPower(tr PowerTrace, duration, dt float64) float64 {
	max := 0.0
	for t := 0.0; t <= duration; t += dt {
		if p := tr.Power(t); p > max {
			max = p
		}
	}
	return max
}
