// Package experiments reproduces every table and figure in the paper's
// evaluation (§6–§7). Each Fig* function runs the systems a figure compares,
// under the sensing environments it uses, and renders the same rows/series
// the paper reports. DESIGN.md carries the experiment index; EXPERIMENTS.md
// records paper-vs-measured numbers produced by this package.
package experiments

import (
	"context"
	"fmt"

	"quetzal/internal/core"
	"quetzal/internal/device"
	"quetzal/internal/faults"
	"quetzal/internal/metrics"
	"quetzal/internal/model"
	"quetzal/internal/policy"
	"quetzal/internal/sim"
	"quetzal/internal/trace"
)

// Environment is one sensing environment from Table 1, defined by the cap
// on event durations ("Maximum 'Interesting' Duration"). Faults, when
// non-zero, layers a hardware-realism scenario (internal/faults) over every
// run in the environment; the struct stays comparable so environments keep
// working as RunKey components.
type Environment struct {
	Name        string
	MaxDuration float64 // seconds
	Faults      faults.Spec
}

// The paper's three sensing environments (Table 1).
var (
	MoreCrowded = Environment{Name: "more-crowded", MaxDuration: 600}
	Crowded     = Environment{Name: "crowded", MaxDuration: 60}
	LessCrowded = Environment{Name: "less-crowded", MaxDuration: 20}

	// MSP430Env is the separate environment Table 1 specifies for the
	// MSP430 experiments: maximum interesting duration 10 s, matching the
	// slower platform's processing rate.
	MSP430Env = Environment{Name: "msp430-crowded", MaxDuration: 10}

	// Surge and Marathon extend the league beyond Table 1: Surge caps
	// events at 5 s (dense bursts of short events — maximum scheduling
	// pressure), Marathon at 240 s (long occupations — sustained drain).
	Surge    = Environment{Name: "surge", MaxDuration: 5}
	Marathon = Environment{Name: "marathon", MaxDuration: 240}

	// Faulty is the crowded environment on unreliable hardware: every task
	// completion faults until a k=2 budget is spent (so EnSuRe's k-fault
	// reservation has something to reserve against), the harvester drops out
	// for 10 s every 2 minutes, and every controller ADC read costs the
	// datasheet measurement energy. Policies that never re-execute or
	// over-measure separate from the rest of the league here.
	Faulty = Environment{Name: "faulty", MaxDuration: 60, Faults: faults.Spec{
		TaskFaultPct:   100,
		TaskFaultLimit: 2,
		DropoutStartS:  30,
		DropoutDurS:    10,
		DropoutPeriodS: 120,
		MeasEnergyNJ:   250,
		MeasLatencyUS:  20,
	}}

	// Environments orders the three from most to least crowded, the order
	// Figures 9–12 sweep them in.
	Environments = []Environment{MoreCrowded, Crowded, LessCrowded}

	// LeagueEnvironments is the seven-environment gauntlet the policy league
	// table runs: the paper's three, the MSP430 one, the two extremes, and
	// the hardware-realism scenario.
	LeagueEnvironments = []Environment{MoreCrowded, Crowded, LessCrowded, MSP430Env, Surge, Marathon, Faulty}
)

// DatasheetMaxWatts is the 6-cell harvester's datasheet maximum output —
// the oracle-free threshold source the PZO baseline uses (§6.1). Real
// traces peak well below it.
const DatasheetMaxWatts = policy.DefaultDatasheetMaxWatts

// ReferenceCells is the harvester cell count of the primary experiments.
const ReferenceCells = 6

// Setup carries the configuration shared by all experiments.
type Setup struct {
	Profile   device.Profile
	NumEvents int   // events per run (paper: 1000 simulated, 100 hardware)
	Seed      int64 // trace + classifier seed
	Cells     int   // harvester cells (Fig 14 sweeps this)

	// Quetzal parameters (0 → paper defaults from Table 1).
	TaskWindow    int
	ArrivalWindow int

	CapturePeriod float64 // seconds; 0 → 1 FPS
	StepDt        float64 // 0 → 1 ms

	// Engine selects the simulator's time-advance mechanism; the default
	// FixedIncrement is the paper-faithful reference, EventDriven runs
	// ~50–200× faster with statistically matching results.
	Engine sim.EngineKind

	// Faults, when enabled, replaces every environment's realism spec for
	// the whole sweep (the -faults/-temp/-meascost flags); a per-key spec
	// (RunKey.Faults) still wins over it.
	Faults faults.Spec
}

// DefaultSetup returns the Apollo 4 configuration the primary experiments
// use. NumEvents defaults to 300 to keep a full harness run tractable; pass
// -events 1000 to cmd/experiments for the paper-scale runs.
func DefaultSetup() Setup {
	return Setup{
		Profile:   device.Apollo4(),
		NumEvents: 300,
		Seed:      42,
		Cells:     ReferenceCells,
	}
}

func (s Setup) capturePeriod() float64 {
	if s.CapturePeriod > 0 {
		return s.CapturePeriod
	}
	return 1
}

// Traces builds the deterministic power and event traces for an environment.
func (s Setup) Traces(env Environment) (trace.PowerTrace, *trace.EventTrace) {
	events := trace.GenerateEvents(trace.DefaultEventConfig(s.NumEvents, env.MaxDuration, s.Seed))
	duration := events.Duration() + 120
	solar := trace.GenerateSolar(trace.DefaultSolarConfig(duration, s.Seed+1))
	cells := s.Cells
	if cells <= 0 {
		cells = ReferenceCells
	}
	if cells == ReferenceCells {
		return solar, events
	}
	return trace.Scaled{Base: solar, Factor: float64(cells) / ReferenceCells}, events
}

// System identifiers accepted by Run — aliases of the internal/policy
// registry names, kept so figure code reads as it always did.
const (
	SysQuetzal      = policy.Quetzal
	SysQuetzalDiv   = policy.QuetzalDiv
	SysQuetzalAvg   = policy.QuetzalAvg
	SysQuetzalFCFS  = policy.QuetzalFCFS
	SysQuetzalLCFS  = policy.QuetzalLCFS
	SysQuetzalCapt  = policy.QuetzalCapture
	SysQuetzalNoPID = policy.QuetzalNoPID
	SysQuetzalNoIBO = policy.QuetzalNoIBO
	SysNoAdapt      = policy.NoAdapt
	SysAlwaysDeg    = policy.AlwaysDegrade
	SysCatNap       = policy.CatNap
	SysPZO          = policy.PZO
	SysPZI          = policy.PZI
	SysIdeal        = policy.Ideal
	SysMDP          = policy.MDPName
	SysEnSuRe       = policy.EnSuReName
	SysInterweave   = policy.InterweaveName
)

// FixedThresholdID names the fixed-buffer-threshold system at the given
// occupancy fraction (e.g. 0.25 → "fixed-25").
func FixedThresholdID(frac float64) string {
	return policy.FixedThresholdID(frac)
}

// Run executes one system in one environment and returns its results.
func (s Setup) Run(systemID string, env Environment) (metrics.Results, error) {
	return s.RunContext(context.Background(), systemID, env)
}

// RunContext is Run with cooperative cancellation: the simulation polls
// ctx and abandons the run when it is done, so sweeps support ctrl-C and
// per-run timeouts.
func (s Setup) RunContext(ctx context.Context, systemID string, env Environment) (metrics.Results, error) {
	return s.runContext(ctx, systemID, env, nil)
}

// runContext executes one system in one environment, with optional
// simulator-level overrides applied after the Setup-derived configuration
// is assembled. It is the single execution path every figure and study
// funnels through.
func (s Setup) runContext(ctx context.Context, systemID string, env Environment, mutate func(*sim.Config)) (metrics.Results, error) {
	power, events := s.Traces(env)
	return s.simulate(ctx, systemID, env, mutate, power, events)
}

// simulate is runContext over traces the caller built with s.Traces(env);
// a Sweep passes traces it shares among the keys that resolve to the same
// ones.
func (s Setup) simulate(ctx context.Context, systemID string, env Environment, mutate func(*sim.Config),
	power trace.PowerTrace, events *trace.EventTrace) (metrics.Results, error) {
	if systemID == SysIdeal {
		return s.ideal(env, events), nil
	}
	simulator, err := s.build(systemID, env, mutate, power, events)
	if err != nil {
		return metrics.Results{}, err
	}
	res, err := simulator.RunContext(ctx)
	if err != nil {
		return res, fmt.Errorf("experiments: %s/%s: %w", systemID, env.Name, err)
	}
	res.System = systemID
	return res, nil
}

// build assembles the simulator for one (non-Ideal) system over the given
// traces, checks on, without running it.
func (s Setup) build(systemID string, env Environment, mutate func(*sim.Config),
	power trace.PowerTrace, events *trace.EventTrace) (*sim.Simulator, error) {
	app := s.Profile.PersonDetectionApp()
	ctl, bufCap, err := s.Controller(systemID, app, power, events)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		Profile:        s.Profile,
		App:            app,
		Controller:     ctl,
		Power:          power,
		Events:         events,
		Engine:         s.Engine,
		CapturePeriod:  s.capturePeriod(),
		StepDt:         s.StepDt,
		BufferCapacity: bufCap,
		Seed:           s.Seed + 7,
		Environment:    env.Name,
		Faults:         env.Faults,
	}
	if s.Faults.Enabled() {
		cfg.Faults = s.Faults
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return sim.New(cfg)
}

// ideal computes the Ideal baseline analytically: "an infinite input buffer
// that never overflows, only discarding interesting inputs due to ML model
// misclassifications" (§2.3). With no buffer limit and no deadline, every
// arrival is eventually processed at the highest quality, so the outcome is
// fully determined by the arrival counts and the high-quality classifier's
// error rates. events is s.Traces(env)'s event trace.
func (s Setup) ideal(env Environment, events *trace.EventTrace) metrics.Results {
	period := s.capturePeriod()
	duration := events.Duration() + 120
	captures := int(duration / period)
	arrivals, interesting := 0, 0
	for k := 0; k < captures; k++ {
		t := float64(k) * period
		ev, ok := events.ActiveAt(t)
		if !ok {
			continue
		}
		arrivals++
		if ev.Interesting {
			interesting++
		}
	}
	hq := s.Profile.MLOptions[0]
	fn := int(float64(interesting)*hq.FalseNegative + 0.5)
	fp := int(float64(arrivals-interesting)*hq.FalsePositive + 0.5)
	return metrics.Results{
		System:              SysIdeal,
		Environment:         env.Name,
		SimSeconds:          duration,
		Captures:            captures,
		Arrivals:            arrivals,
		InterestingArrivals: interesting,
		FalseNegatives:      fn,
		TruePositives:       interesting - fn,
		TrueNegatives:       arrivals - interesting - fp,
		FalsePositives:      fp,
		HighQInteresting:    interesting - fn,
		HighQUninteresting:  fp,
		JobsCompleted:       arrivals + (interesting - fn) + fp,
	}
}

// Controller builds the controller for a system id through the policy
// registry (internal/policy) — the single source of policy names. The
// returned buffer capacity is 0 (profile default) except for systems that
// demand a specific one (Ideal). Exported so the fleet layer can assemble
// per-device configurations through the same registry the figures use.
func (s Setup) Controller(systemID string, app *model.App, power trace.PowerTrace, events *trace.EventTrace) (core.Controller, int, error) {
	ctl, bufCap, err := policy.Build(systemID, policy.Context{
		App:           app,
		Power:         power,
		Events:        events,
		CapturePeriod: s.capturePeriod(),
		TaskWindow:    s.TaskWindow,
		ArrivalWindow: s.ArrivalWindow,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: %w", err)
	}
	return ctl, bufCap, nil
}
