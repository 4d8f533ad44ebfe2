package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"quetzal/internal/randsrc"
)

// FleetSolar derives per-device solar traces that share one regional sky.
// All devices in a fleet see the same diurnal envelope and the same regional
// cloud process (an Ornstein–Uhlenbeck series seeded by the fleet seed);
// each device blends that with its own local cloud draw and sensor noise
// from a per-device seed. Correlation sets the blend: 1 → every device sees
// identical attenuation (one sky), 0 → fully independent clouds.
//
// Determinism is structural: the regional series is a pure function of the
// base config's Seed, consumed strictly in sample order and extended lazily
// under a mutex, and each device trace is a pure function of (config,
// correlation, device seed). Traces are therefore invariant to the order in
// which devices are generated — shard layout and worker count cannot change
// a single sample.
type FleetSolar struct {
	cfg  SolarConfig
	corr float64

	mu  sync.Mutex
	rng *rand.Rand
	x   float64   // regional OU state after the last generated sample
	reg []float64 // regional attenuation samples, one per SampleDt
	env []float64 // diurnal envelope samples, one per SampleDt
}

// NewFleetSolar builds the shared generator. cfg.Seed seeds the regional
// sky; cfg.Duration is the default per-device trace length (Device may ask
// for longer — the regional series extends on demand). It panics on a
// non-physical configuration, mirroring GenerateSolar.
func NewFleetSolar(cfg SolarConfig, correlation float64) *FleetSolar {
	if cfg.PeakPower <= 0 || cfg.DayLength <= 0 || cfg.Duration <= 0 || cfg.SampleDt <= 0 {
		panic(fmt.Sprintf("trace: fleet solar config must have positive peak/day/duration/dt, got %+v", cfg))
	}
	if cfg.DaylightFraction <= 0 || cfg.DaylightFraction > 1 {
		panic(fmt.Sprintf("trace: daylight fraction must be in (0,1], got %g", cfg.DaylightFraction))
	}
	if correlation < 0 || correlation > 1 {
		panic(fmt.Sprintf("trace: correlation must be in [0,1], got %g", correlation))
	}
	rng := randsrc.New(cfg.Seed)
	return &FleetSolar{cfg: cfg, corr: correlation, rng: rng, x: rng.NormFloat64()}
}

// shared returns at least n samples of the diurnal envelope and of the
// regional attenuation series, extending both under the lock. Existing
// samples are never rewritten, and the RNG is consumed strictly
// sequentially, so sample j is identical no matter which device's request
// forced the extension.
func (f *FleetSolar) shared(n int) (env, reg []float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	tau := f.cfg.CloudTau
	if tau <= 0 {
		tau = 1
	}
	sigma := math.Sqrt(2 / tau)
	dt := f.cfg.SampleDt
	for len(f.reg) < n {
		f.x += (-f.x/tau)*dt + sigma*math.Sqrt(dt)*f.rng.NormFloat64()
		atten := 1 - f.cfg.CloudDepth*sigmoid(f.x-0.5)
		if atten < 0.02 {
			atten = 0.02
		}
		f.reg = append(f.reg, atten)
	}
	for i := len(f.env); i < n; i++ {
		t := float64(i) * dt
		phase := math.Mod(t/f.cfg.DayLength+f.cfg.StartFraction, 1)
		env := 0.0
		if phase < f.cfg.DaylightFraction {
			env = math.Pow(math.Sin(math.Pi*phase/f.cfg.DaylightFraction), 1.2)
		}
		f.env = append(f.env, env)
	}
	return f.env, f.reg
}

// Device generates one device's sampled trace from its derived seed,
// covering at least the given duration (≤ 0 → the config default). Device
// event traces vary in length, so each device asks for exactly the horizon
// its run needs; the shared envelope and regional sky are functions of
// absolute time, identical across devices wherever their grids overlap.
// Safe for concurrent use.
func (f *FleetSolar) Device(seed int64, duration float64) *Sampled {
	cfg := f.cfg
	if duration > 0 {
		cfg.Duration = duration
	}
	n := int(cfg.Duration/cfg.SampleDt) + 1
	envs, reg := f.shared(n)

	rng := randsrc.New(seed)
	tau := cfg.CloudTau
	if tau <= 0 {
		tau = 1
	}
	sigma := math.Sqrt(2 / tau)
	x := rng.NormFloat64() // local OU cloud state
	samples := make([]float64, n)
	for i := 0; i < n; i++ {
		env := envs[i]
		dt := cfg.SampleDt
		x += (-x/tau)*dt + sigma*math.Sqrt(dt)*rng.NormFloat64()
		local := 1 - cfg.CloudDepth*sigmoid(x-0.5)
		if local < 0.02 {
			local = 0.02
		}
		atten := f.corr*reg[i] + (1-f.corr)*local
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
