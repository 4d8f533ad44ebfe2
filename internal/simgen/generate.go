// Package simgen samples the simulator's configuration space: it turns a
// seed into a complete, valid sim.Config spanning every device profile,
// controller family, power-trace shape, checkpoint policy and buffer size
// the repository ships. The differential oracle runs each sampled config
// through both time-advance loops and both sides of the crawl replay:
// fixed↔event must agree within Tolerance(), and the event-driven stepper
// with its replay on (checks off) must be bit-identical to it with the
// replay off (checks on, a no-op observer attached; see Run); the fuzz
// target FuzzParams
// drives the same sampler from arbitrary bytes; and Shrink supports
// minimizing a failing configuration to its smallest still-failing
// neighbour.
//
// Params uses small integer knobs (indices and integer-scaled physical
// quantities) rather than raw floats so that (a) a failing config prints
// as a short reproducible recipe, (b) shrinking is a walk on a lattice,
// and (c) the fuzzer mutates meaningful dimensions instead of NaN soup.
package simgen

import (
	"fmt"
	"math/rand"

	"quetzal/internal/circuit"
	"quetzal/internal/device"
	"quetzal/internal/energy"
	"quetzal/internal/engine"
	"quetzal/internal/faults"
	"quetzal/internal/metrics"
	"quetzal/internal/policy"
	"quetzal/internal/randsrc"
	"quetzal/internal/sim"
	"quetzal/internal/trace"
)

// Knob ranges. Each Params field is normalized into its range by Normalize,
// so any integer assignment yields a valid configuration.
const (
	numProfiles   = 4
	numPowerKinds = 3
	numCheckpoint = 3

	minEvents, maxEvents     = 2, 10
	minEventDur, maxEventDur = 5, 25 // seconds, cap on event duration
	minPowerMW, maxPowerMW   = 2, 80
	minCapMF, maxCapMF       = 8, 60
	minBufCap, maxBufCap     = 4, 16
	minCaptureMS             = 500
	maxCaptureMS             = 2000
	maxJitterPct             = 40

	// Hardware-realism knobs (internal/faults). Half the random corpus
	// leaves each at zero so the ideal-hardware space keeps its coverage.
	maxFaultPct   = 40   // transient-fault probability ceiling, percent
	maxFaultLimit = 4    // injected-fault cap (0 = unlimited)
	maxDropoutS   = 20   // harvester dropout duration, seconds
	dropoutStartS = 5    // all generated dropout windows open at t=5 s
	maxMeasNJ     = 2000 // per-sample measurement energy, nanojoules
	tempPeriodS   = 60   // diurnal period compressed to simulation scale
)

// Params is one point in the configuration space.
type Params struct {
	Seed         int64 // trace + classifier randomness
	Profile      int   // 0 apollo4, 1 msp430, 2 stm32g0, 3 apollo4-multiquality
	System       int   // 0 quetzal, 1 noadapt, 2 alwaysdegrade, 3 catnap, 4 fixed-50, 5 pzo
	PowerKind    int   // 0 constant, 1 square-wave, 2 solar
	PowerMW      int   // power level, milliwatts
	NumEvents    int
	EventDurS    int // cap on event durations, seconds
	Checkpoint   int // sim.CheckpointPolicy
	JitterPct    int // TexeJitterOverride × 100
	CapMF        int // store capacitance, millifarads
	BufCap       int // buffer capacity, inputs
	CapturePerMS int // capture period, milliseconds

	// Hardware-realism knobs; all zero = ideal hardware (the pre-fault
	// space, bit-identical to configs generated before these existed).
	FaultPct   int // transient task-fault probability, percent
	FaultLimit int // injected-fault cap (0 = unlimited; needs FaultPct > 0)
	DropoutS   int // harvester dropout window duration, seconds (0 = none)
	TempC      int // junction temperature °C, 0 = default 25
	TempSwing  int // diurnal swing ±°C (needs TempC > 0, stays in band)
	MeasNJ     int // per-sample measurement energy, nanojoules
	StuckBit   int // 0 = none, 1–8 = ADC result bit (n−1) stuck high
}

// Random samples uniformly over the whole space.
func Random(seed int64) Params {
	rng := randsrc.New(seed)
	span := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	p := Params{
		Seed:         seed,
		Profile:      rng.Intn(numProfiles),
		System:       rng.Intn(numSystems),
		PowerKind:    rng.Intn(numPowerKinds),
		PowerMW:      span(minPowerMW, maxPowerMW),
		NumEvents:    span(minEvents, maxEvents),
		EventDurS:    span(minEventDur, maxEventDur),
		Checkpoint:   rng.Intn(numCheckpoint),
		JitterPct:    rng.Intn(maxJitterPct + 1),
		CapMF:        span(minCapMF, maxCapMF),
		BufCap:       span(minBufCap, maxBufCap),
		CapturePerMS: span(minCaptureMS, maxCaptureMS),
	}
	// Realism draws come AFTER every pre-existing knob, so seeds generated
	// before these knobs existed keep their exact configurations. Each
	// knob is zero half the time: the corpus keeps full coverage of the
	// ideal-hardware space while opening the faulty one.
	p.FaultPct = halfZero(rng, 1, maxFaultPct)
	p.FaultLimit = rng.Intn(maxFaultLimit + 1)
	p.DropoutS = halfZero(rng, 1, maxDropoutS)
	p.TempC = halfZero(rng, faults.MinTempC, faults.MaxTempC)
	if p.TempC > 0 {
		if ms := maxSwingFor(p.TempC); ms > 0 {
			p.TempSwing = halfZero(rng, 1, ms)
		}
	}
	p.MeasNJ = halfZero(rng, 50, maxMeasNJ)
	p.StuckBit = halfZero(rng, 1, 8)
	return p
}

// halfZero returns 0 with probability ½, else a uniform draw from [lo, hi].
// Both rng draws are always consumed so later knobs never shift.
func halfZero(rng *rand.Rand, lo, hi int) int {
	zero := rng.Intn(2) == 0
	v := lo + rng.Intn(hi-lo+1)
	if zero {
		return 0
	}
	return v
}

// maxSwingFor bounds a diurnal swing so the excursion stays inside the
// paper's 25–50 °C characterisation band.
func maxSwingFor(tempC int) int {
	ms := tempC - faults.MinTempC
	if h := faults.MaxTempC - tempC; h < ms {
		ms = h
	}
	return ms
}

// Normalize folds every knob into its valid range (for fuzzed inputs).
func (p Params) Normalize() Params {
	mod := func(v, n int) int {
		v %= n
		if v < 0 {
			v += n
		}
		return v
	}
	clamp := func(v, lo, hi int) int { return lo + mod(v-lo, hi-lo+1) }
	p.Profile = mod(p.Profile, numProfiles)
	p.System = mod(p.System, numSystems)
	p.PowerKind = mod(p.PowerKind, numPowerKinds)
	p.PowerMW = clamp(p.PowerMW, minPowerMW, maxPowerMW)
	p.NumEvents = clamp(p.NumEvents, minEvents, maxEvents)
	p.EventDurS = clamp(p.EventDurS, minEventDur, maxEventDur)
	p.Checkpoint = mod(p.Checkpoint, numCheckpoint)
	p.JitterPct = clamp(p.JitterPct, 0, maxJitterPct)
	p.CapMF = clamp(p.CapMF, minCapMF, maxCapMF)
	p.BufCap = clamp(p.BufCap, minBufCap, maxBufCap)
	p.CapturePerMS = clamp(p.CapturePerMS, minCaptureMS, maxCaptureMS)
	// Realism knobs: 0 is always valid (knob off), anything else folds into
	// the knob's on-range. TempSwing additionally depends on TempC so the
	// diurnal excursion stays inside the 25–50 °C band.
	p.FaultPct = zeroOr(p.FaultPct, 1, maxFaultPct)
	p.FaultLimit = mod(p.FaultLimit, maxFaultLimit+1)
	p.DropoutS = zeroOr(p.DropoutS, 1, maxDropoutS)
	p.TempC = zeroOr(p.TempC, faults.MinTempC, faults.MaxTempC)
	if ms := maxSwingFor(p.TempC); p.TempC == 0 || ms == 0 {
		p.TempSwing = 0
	} else {
		p.TempSwing = zeroOr(p.TempSwing, 1, ms)
	}
	p.MeasNJ = zeroOr(p.MeasNJ, 1, maxMeasNJ)
	p.StuckBit = zeroOr(p.StuckBit, 1, 8)
	return p
}

// zeroOr keeps 0 (knob off) and folds any other value into [lo, hi].
func zeroOr(v, lo, hi int) int {
	if v == 0 {
		return 0
	}
	m := (v - lo) % (hi - lo + 1)
	if m < 0 {
		m += hi - lo + 1
	}
	return lo + m
}

// profile returns the device profile for the index.
func (p Params) profile() device.Profile {
	switch p.Profile {
	case 1:
		return device.MSP430()
	case 2:
		return device.STM32G0()
	case 3:
		return device.Apollo4MultiQuality()
	default:
		return device.Apollo4()
	}
}

var profileNames = [...]string{"apollo4", "msp430", "stm32g0", "apollo4-multiq"}

// systemNames are the sampled controller families' display names and
// systemIDs their policy-registry ids, index-aligned. Indices 0–5 are FROZEN:
// the golden-trace recipes and the curated differential table encode them, so
// new families must be appended, never inserted.
var systemNames = [...]string{
	"quetzal", "noadapt", "alwaysdegrade", "catnap", "fixed-50", "pzo",
	"qz-div", "qz-avg", "qz-fcfs", "qz-lcfs", "qz-capture", "qz-nopid",
	"qz-noibo", "pzi", "fixed-25", "mdp", "ensure", "interweave",
}
var systemIDs = [...]string{
	policy.Quetzal, policy.NoAdapt, policy.AlwaysDegrade, policy.CatNap, "fixed-50", policy.PZO,
	policy.QuetzalDiv, policy.QuetzalAvg, policy.QuetzalFCFS, policy.QuetzalLCFS,
	policy.QuetzalCapture, policy.QuetzalNoPID, policy.QuetzalNoIBO, policy.PZI,
	"fixed-25", policy.MDPName, policy.EnSuReName, policy.InterweaveName,
}

const numSystems = len(systemNames)

var powerNames = [...]string{"constant", "square", "solar"}

// String renders the parameters as a reproducible one-line recipe. Realism
// knobs are appended only when set, so ideal-hardware recipes keep their
// historical form.
func (p Params) String() string {
	s := fmt.Sprintf("seed=%d %s/%s %s@%dmW events=%d×≤%ds ckpt=%s jitter=%d%% cap=%dmF buf=%d capture=%dms",
		p.Seed, profileNames[p.Profile], p.SystemName(), powerNames[p.PowerKind], p.PowerMW,
		p.NumEvents, p.EventDurS, sim.CheckpointPolicy(p.Checkpoint), p.JitterPct,
		p.CapMF, p.BufCap, p.CapturePerMS)
	if fs := p.FaultSpec(); fs.Enabled() {
		s += " realism=" + fs.String()
	}
	return s
}

// FaultSpec maps the realism knobs onto a validated faults.Spec. All-zero
// knobs yield the zero Spec (ideal hardware).
func (p Params) FaultSpec() faults.Spec {
	var fs faults.Spec
	if p.FaultPct > 0 {
		fs.TaskFaultPct = p.FaultPct
		fs.TaskFaultLimit = p.FaultLimit
	}
	if p.DropoutS > 0 {
		fs.DropoutStartS = dropoutStartS
		fs.DropoutDurS = p.DropoutS
	}
	if p.TempC > 0 {
		fs.TempC = p.TempC
		if p.TempSwing > 0 {
			fs.TempSwingC = p.TempSwing
			fs.TempPeriodS = tempPeriodS
		}
	}
	if p.MeasNJ > 0 {
		fs.MeasEnergyNJ = p.MeasNJ
		fs.MeasLatencyUS = circuit.DefaultMeasLatencyUS
	}
	if p.StuckBit > 0 {
		fs.StuckHigh = 1 << (p.StuckBit - 1)
	}
	return fs
}

// SystemName names the controller family.
func (p Params) SystemName() string { return systemNames[p.System] }

// Config assembles the complete simulator configuration for the given
// engine. Both engines must receive separately built configs (controllers
// carry state), so callers invoke Config once per engine.
func (p Params) Config(engine sim.EngineKind) (sim.Config, error) {
	prof := p.profile()
	app := prof.PersonDetectionApp()
	period := float64(p.CapturePerMS) / 1000

	// Traces come first: threshold-from-trace policies (pzi) need them to
	// build. Neither trace shares RNG state with the controller, so the
	// ordering is behaviorally neutral for the frozen recipes.
	events := trace.GenerateEvents(trace.DefaultEventConfig(p.NumEvents, float64(p.EventDurS), p.Seed))
	watts := float64(p.PowerMW) / 1000
	var power trace.PowerTrace
	switch p.PowerKind {
	case 1:
		power = trace.SquareWave{High: watts, Low: watts / 10, Period: 45, Duty: 0.5}
	case 2:
		solar := trace.GenerateSolar(trace.DefaultSolarConfig(events.Duration()+120, p.Seed+2))
		// Solar peaks well above its mean; scale so the trace's level knob
		// still tracks PowerMW.
		power = trace.Scaled{Base: solar, Factor: watts / 0.05}
	default:
		power = trace.Constant{P: watts}
	}

	ctl, _, err := policy.Build(systemIDs[p.System], policy.Context{
		App:           app,
		Power:         power,
		Events:        events,
		CapturePeriod: period,
	})
	if err != nil {
		return sim.Config{}, fmt.Errorf("simgen: %v: %w", p, err)
	}

	store := energy.DefaultConfig()
	store.Capacitance = float64(p.CapMF) / 1000

	return sim.Config{
		Profile:            prof,
		App:                app,
		Controller:         ctl,
		Power:              power,
		Events:             events,
		Store:              store,
		Engine:             engine,
		CapturePeriod:      period,
		BufferCapacity:     p.BufCap,
		Seed:               p.Seed + 1,
		Checkpoint:         sim.CheckpointPolicy(p.Checkpoint),
		CheckpointInterval: 0.5,
		TexeJitterOverride: float64(p.JitterPct) / 100,
		Environment:        "simgen",
		Faults:             p.FaultSpec(),
	}, nil
}

// Run builds and executes the configuration under the given engine, checks
// on, with the crawl replay off: a no-op observer keeps the event-driven
// stepper on its per-segment path, so Run is the replay-off reference the
// differential oracle holds the replay arm (RunUnchecked) to.
func (p Params) Run(kind sim.EngineKind) (metrics.Results, error) {
	cfg, err := p.Config(kind)
	if err != nil {
		return metrics.Results{}, err
	}
	s, err := sim.New(cfg)
	if err != nil {
		return metrics.Results{}, fmt.Errorf("simgen: %v: %w", p, err)
	}
	s.Machine().Observe(engine.FuncObserver{})
	return s.Run()
}

// RunUnchecked is the configuration without the invariant checker
// (sim.ChecksOff) and without Run's no-op observer, so the event-driven
// stepper's crawl replay engages. The differential oracle uses it for the
// replay-on arm so the comparison exercises the fast path it certifies;
// the accounting identities are still verified by the engine's own
// end-of-run Results.Check.
func (p Params) RunUnchecked(engine sim.EngineKind) (metrics.Results, error) {
	cfg, err := p.Config(engine)
	if err != nil {
		return metrics.Results{}, err
	}
	cfg.Checks = sim.ChecksOff
	s, err := sim.New(cfg)
	if err != nil {
		return metrics.Results{}, fmt.Errorf("simgen: %v: %w", p, err)
	}
	return s.Run()
}

// Shrink returns simpler neighbours of p, nearest-to-minimal first. A
// failing differential config is minimized by repeatedly moving to any
// neighbour that still fails, so the reported reproducer is the smallest
// configuration exhibiting the disagreement.
func (p Params) Shrink() []Params {
	var out []Params
	try := func(q Params) {
		if q != p {
			out = append(out, q)
		}
	}
	// Structural dimensions toward the trivial point.
	q := p
	q.System = 1 // noadapt: stateless controller
	try(q)
	q = p
	q.Profile = 0
	try(q)
	q = p
	q.PowerKind = 0
	try(q)
	q = p
	q.Checkpoint = 0
	try(q)
	q = p
	q.JitterPct = 0
	try(q)
	// Scale dimensions, halved toward their minimum.
	q = p
	q.NumEvents = shrinkInt(p.NumEvents, minEvents)
	try(q)
	q = p
	q.EventDurS = shrinkInt(p.EventDurS, minEventDur)
	try(q)
	q = p
	q.PowerMW = shrinkInt(p.PowerMW, minPowerMW)
	try(q)
	q = p
	q.CapMF = 33
	try(q)
	q = p
	q.BufCap = 10
	try(q)
	q = p
	q.CapturePerMS = 1000
	try(q)
	// Realism knobs toward ideal hardware (all zero). FaultPct additionally
	// halves so a high-rate failure can shrink to the lowest still-failing
	// rate; zeroing FaultPct implies zeroing its limit.
	q = p
	q.FaultPct, q.FaultLimit = 0, 0
	try(q)
	q = p
	q.FaultPct = shrinkInt(p.FaultPct, 0)
	try(q)
	q = p
	q.DropoutS = 0
	try(q)
	q = p
	q.TempC, q.TempSwing = 0, 0
	try(q)
	q = p
	q.TempSwing = 0
	try(q)
	q = p
	q.MeasNJ = 0
	try(q)
	q = p
	q.StuckBit = 0
	try(q)
	return out
}

// shrinkInt halves the distance from v to its minimum.
func shrinkInt(v, min int) int {
	if v <= min {
		return min
	}
	return min + (v-min)/2
}
