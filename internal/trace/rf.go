package trace

import (
	"fmt"

	"quetzal/internal/randsrc"
)

// RFConfig parameterises the synthetic RF-harvesting generator. RF power
// (from a reader, a base station, or ambient transmitters — the WISP/Moo
// class of devices the paper cites) behaves very differently from solar:
// it is bursty, switching between a strong near-field level while a
// transmitter is active and a weak ambient floor otherwise, with rapid
// fading wiggle on top.
type RFConfig struct {
	// ActivePower is the harvested power while a transmitter is active;
	// FloorPower the ambient level otherwise (watts).
	ActivePower, FloorPower float64
	// MeanActive / MeanIdle are the exponential means of the transmitter
	// duty cycle, in seconds.
	MeanActive, MeanIdle float64
	// FadingDepth in [0,1) scales multiplicative fast fading.
	FadingDepth float64
	// Duration and SampleDt control the precomputed sample grid.
	Duration, SampleDt float64
	Seed               int64
}

// DefaultRFConfig returns an RF profile with 40 mW active bursts over a
// 0.5 mW ambient floor, ~20 s bursts every ~60 s.
func DefaultRFConfig(duration float64, seed int64) RFConfig {
	return RFConfig{
		ActivePower: 0.040,
		FloorPower:  0.0005,
		MeanActive:  20,
		MeanIdle:    60,
		FadingDepth: 0.5,
		Duration:    duration,
		SampleDt:    0.5,
		Seed:        seed,
	}
}

// GenerateRF produces a sampled RF-harvest trace from cfg.
// It panics on a non-physical configuration.
func GenerateRF(cfg RFConfig) *Sampled {
	if cfg.ActivePower <= 0 || cfg.FloorPower < 0 || cfg.ActivePower < cfg.FloorPower {
		panic(fmt.Sprintf("trace: RF powers must satisfy active ≥ floor ≥ 0, got %g/%g",
			cfg.ActivePower, cfg.FloorPower))
	}
	if cfg.MeanActive <= 0 || cfg.MeanIdle <= 0 || cfg.Duration <= 0 || cfg.SampleDt <= 0 {
		panic(fmt.Sprintf("trace: RF durations must be positive, got %+v", cfg))
	}
	if cfg.FadingDepth < 0 || cfg.FadingDepth >= 1 {
		panic(fmt.Sprintf("trace: fading depth must be in [0,1), got %g", cfg.FadingDepth))
	}
	rng := randsrc.New(cfg.Seed)
	n := int(cfg.Duration/cfg.SampleDt) + 1
	samples := make([]float64, n)

	active := rng.Float64() < cfg.MeanActive/(cfg.MeanActive+cfg.MeanIdle)
	var left float64
	nextPhase := func() {
		if active {
			left = rng.ExpFloat64() * cfg.MeanActive
		} else {
			left = rng.ExpFloat64() * cfg.MeanIdle
		}
	}
	nextPhase()
	for i := 0; i < n; i++ {
		left -= cfg.SampleDt
		if left <= 0 {
			active = !active
			nextPhase()
		}
		p := cfg.FloorPower
		if active {
			p = cfg.ActivePower
		}
		// Fast Rayleigh-ish fading: multiplicative wiggle in
		// [1−depth, 1+depth].
		p *= 1 + cfg.FadingDepth*(2*rng.Float64()-1)
		if p < 0 {
			p = 0
		}
		samples[i] = p
	}
	return &Sampled{Dt: cfg.SampleDt, Samples: samples}
}
