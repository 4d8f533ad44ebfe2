// Package quetzal is a Go implementation of Quetzal, the energy-aware
// scheduling and input-buffer-overflow (IBO) prevention system for
// energy-harvesting devices from
//
//	Desai, Wang, Lucia — "Energy-aware Scheduling and Input Buffer Overflow
//	Prevention for Energy-harvesting Systems", ASPLOS 2025.
//
// Energy-harvesting sensors capture inputs at a fixed rate but process them
// at a rate that varies with harvested power and event activity; when
// processing falls behind, the small on-device input buffer overflows and
// interesting inputs are lost. Quetzal combines:
//
//   - an Energy-aware Shortest-Job-First scheduler that folds energy
//     recharge time into every job's expected service time
//     (S_e2e = max(t_exe, E_exe/P_in));
//   - an IBO-detection and reaction engine that uses Little's Law to
//     predict overflows and degrades task quality only as much as needed
//     to avert them;
//   - a PID controller that corrects systematic prediction error; and
//   - a model of the paper's power-measurement hardware circuit (two
//     diodes, a mux, an 8-bit ADC) that evaluates the P_exe/P_in ratio
//     without division.
//
// # Programming model
//
// Applications are written as Tasks grouped into Jobs (§5.2). A Task may be
// degradable: it carries a quality-ordered list of Options (e.g. MobileNetV2
// vs LeNet for inference; a full JPEG image vs a single byte for the radio).
// A Job is a sequence of tasks with at most one degradable task; a job can
// spawn a follow-up job for the same input (a positive classification queues
// the report stage). The runtime schedules buffered inputs across jobs and
// chooses each execution's quality.
//
// # Quick start
//
//	profile := quetzal.Apollo4()
//	app := profile.PersonDetectionApp()
//	rt, err := quetzal.NewRuntime(quetzal.RuntimeConfig{
//		App:           app,
//		CapturePeriod: 1, // seconds between captures
//	})
//	// drive rt.NextJob / rt.ObserveCapture / rt.OnJobComplete from your
//	// host — or hand it to the bundled simulator:
//	res, err := quetzal.Simulate(quetzal.SimConfig{
//		Profile:    profile,
//		App:        app,
//		Controller: rt,
//		Power:      quetzal.GenerateSolar(quetzal.DefaultSolarConfig(3600, 1)),
//		Events:     quetzal.GenerateEvents(quetzal.DefaultEventConfig(100, 60, 1)),
//	})
//
// See example_test.go for runnable examples (a custom application,
// checkpoint policies, the MSP430 pipeline) and internal/experiments for the
// harness that regenerates every table and figure of the paper.
package quetzal

import (
	"quetzal/internal/baseline"
	"quetzal/internal/buffer"
	"quetzal/internal/core"
	"quetzal/internal/device"
	"quetzal/internal/energy"
	"quetzal/internal/host"
	"quetzal/internal/metrics"
	"quetzal/internal/model"
	"quetzal/internal/sched"
	"quetzal/internal/sim"
	"quetzal/internal/trace"
)

// Programming model (paper §5.2).
type (
	// Option is one quality level of a task: latency, power, classifier
	// error rates and the high-quality flag for transmissions.
	Option = model.Option
	// Task is a named computation with quality-ordered options.
	Task = model.Task
	// TaskKind distinguishes compute, classify and transmit tasks.
	TaskKind = model.TaskKind
	// Job is an ordered sequence of tasks processing one buffered input.
	Job = model.Job
	// App is a complete application: jobs plus capture-pipeline costs.
	App = model.App
)

// Task kinds and the no-spawn sentinel.
const (
	Compute  = model.Compute
	Classify = model.Classify
	Transmit = model.Transmit
	NoSpawn  = model.NoSpawn
)

// Runtime pieces (paper §4–§5).
type (
	// Runtime is the Quetzal runtime: Energy-aware SJF + IBO engine + PID
	// + hardware power measurement.
	Runtime = core.Runtime
	// RuntimeConfig assembles a Runtime.
	RuntimeConfig = core.Config
	// Controller is the decision interface the simulator (or firmware
	// glue) drives; Runtime and all baselines implement it.
	Controller = core.Controller
	// Decision is a scheduling decision: which input, which qualities.
	Decision = core.Decision
	// Feedback reports a completed job back to the controller.
	Feedback = core.Feedback
	// Env is the device state observed at a scheduling point.
	Env = core.Env
	// EstimatorKind selects how S_e2e is computed (hardware module, exact
	// division, or averaged history).
	EstimatorKind = core.EstimatorKind
	// Policy is a scheduling policy (Energy-aware SJF, FCFS, ...).
	Policy = sched.Policy
	// InputBuffer is the bounded on-device input queue.
	InputBuffer = buffer.Buffer
	// Input is one buffered sensor input.
	Input = buffer.Input
)

// Estimator kinds.
const (
	HardwareModule = core.HardwareModule
	ExactDivision  = core.ExactDivision
	AveragedSe2e   = core.AveragedSe2e
)

// NewRuntime builds the Quetzal runtime and runs its profiling phase.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) { return core.New(cfg) }

// NewInputBuffer returns an empty input buffer with the given capacity.
func NewInputBuffer(capacity int) *InputBuffer { return buffer.New(capacity) }

// Scheduling policies (§4.1, §6.1).
func EnergySJF() Policy    { return sched.EnergySJF{} }
func FCFS() Policy         { return sched.FCFS{} }
func LCFS() Policy         { return sched.LCFS{} }
func CaptureOrder() Policy { return sched.CaptureOrder{} }

// Device profiles (Table 1).
type (
	// DeviceProfile bundles an MCU's task cost tables and peripherals.
	DeviceProfile = device.Profile
	// MCU describes a microcontroller's fixed characteristics.
	MCU = device.MCU
)

// Apollo4 returns the Ambiq Apollo 4 platform profile from the paper's
// Table 1 (MobileNetV2/LeNet inference, full-image/single-byte radio).
func Apollo4() DeviceProfile { return device.Apollo4() }

// MSP430 returns the TI MSP430FR5994 platform profile from Table 1
// (Int-16/Int-8 LeNet inference).
func MSP430() DeviceProfile { return device.MSP430() }

// STM32G0 returns an STM32G071 platform profile — a third, divider-less
// target beyond the paper's Table 1.
func STM32G0() DeviceProfile { return device.STM32G0() }

// Apollo4MultiQuality returns an Apollo 4 profile with the full four-level
// degradation ladder (three inference models, four radio payload sizes).
func Apollo4MultiQuality() DeviceProfile { return device.Apollo4MultiQuality() }

// Baseline controllers (§6.1).
func NoAdapt(app *App) (Controller, error)       { return baseline.NoAdapt(app) }
func AlwaysDegrade(app *App) (Controller, error) { return baseline.AlwaysDegrade(app) }
func CatNap(app *App) (Controller, error)        { return baseline.CatNap(app) }

// FixedThreshold degrades all degradable tasks when buffer occupancy
// reaches frac (0–1].
func FixedThreshold(app *App, frac float64) (Controller, error) {
	return baseline.Threshold(app, frac)
}

// ProteanZygarde returns the static input-power-threshold baseline: as
// proposed (threshold from the harvester datasheet maximum) when oracle is
// false, or the idealised variant (threshold from the observed maximum,
// which needs future knowledge) when oracle is true.
func ProteanZygarde(app *App, maxWatts float64, oracle bool) (Controller, error) {
	if oracle {
		return baseline.PZI(app, maxWatts)
	}
	return baseline.PZO(app, maxWatts)
}

// Environment traces (§6.4).
type (
	// PowerTrace yields harvestable power over time.
	PowerTrace = trace.PowerTrace
	// SolarConfig parameterises the synthetic solar generator.
	SolarConfig = trace.SolarConfig
	// EventTrace is a sequence of sensing events.
	EventTrace = trace.EventTrace
	// Event is one burst of sensing activity.
	Event = trace.Event
	// EventConfig parameterises the synthetic event generator.
	EventConfig = trace.EventConfig
	// ConstantPower is a fixed-power trace.
	ConstantPower = trace.Constant
	// SquareWavePower alternates between two power levels.
	SquareWavePower = trace.SquareWave
)

// DefaultSolarConfig returns the harness's solar generator settings for a
// run of the given duration (seconds), deterministic under seed.
func DefaultSolarConfig(duration float64, seed int64) SolarConfig {
	return trace.DefaultSolarConfig(duration, seed)
}

// GenerateSolar produces a sampled solar power trace.
func GenerateSolar(cfg SolarConfig) PowerTrace { return trace.GenerateSolar(cfg) }

// RFConfig parameterises the synthetic RF-harvesting generator (bursty
// reader-driven power with an ambient floor).
type RFConfig = trace.RFConfig

// DefaultRFConfig returns the default RF-harvesting profile.
func DefaultRFConfig(duration float64, seed int64) RFConfig {
	return trace.DefaultRFConfig(duration, seed)
}

// GenerateRF produces a sampled RF-harvest power trace.
func GenerateRF(cfg RFConfig) PowerTrace { return trace.GenerateRF(cfg) }

// DefaultEventConfig returns the harness's event generator settings: n
// events with durations capped at maxDuration seconds (the paper's
// environment knob: 600/60/20 s).
func DefaultEventConfig(n int, maxDuration float64, seed int64) EventConfig {
	return trace.DefaultEventConfig(n, maxDuration, seed)
}

// GenerateEvents produces a deterministic event trace.
func GenerateEvents(cfg EventConfig) *EventTrace { return trace.GenerateEvents(cfg) }

// Simulation (§6.3).
type (
	// SimConfig describes one simulation run.
	SimConfig = sim.Config
	// Simulator is the device simulator: a facade over the engine's device
	// state machine with a selectable time-advance stepper (EngineKind).
	Simulator = sim.Simulator
	// Results is the metrics accounting a run produces.
	Results = metrics.Results
	// StoreConfig describes the supercapacitor energy store.
	StoreConfig = energy.StoreConfig
	// CheckpointPolicy selects the intermittent-computing progress model.
	CheckpointPolicy = sim.CheckpointPolicy
	// EngineKind selects the simulator's time-advance stepper.
	EngineKind = sim.EngineKind
	// CheckMode toggles the runtime invariant checker.
	CheckMode = sim.CheckMode
)

// Simulation engines for SimConfig.Engine.
const (
	// FixedIncrement is the paper's 1 ms stepper (reference semantics).
	FixedIncrement = sim.FixedIncrement
	// EventDriven is the validated fast path (~100x faster).
	EventDriven = sim.EventDriven
)

// Invariant-checker modes for SimConfig.Checks.
const (
	// ChecksAuto (default) runs the invariant checker every step.
	ChecksAuto = sim.ChecksAuto
	// ChecksOff disables invariant checking (benchmarks).
	ChecksOff = sim.ChecksOff
)

// Checkpoint policies for SimConfig.Checkpoint.
const (
	// JITCheckpoint preserves progress exactly across power failures (the
	// paper's model).
	JITCheckpoint = sim.JITCheckpoint
	// NoCheckpoint restarts the interrupted task from scratch.
	NoCheckpoint = sim.NoCheckpoint
	// PeriodicCheckpoint rolls back to the last periodic snapshot.
	PeriodicCheckpoint = sim.PeriodicCheckpoint
)

// NewSimulator validates cfg and builds a simulator.
func NewSimulator(cfg SimConfig) (*Simulator, error) { return sim.New(cfg) }

// Simulate is the one-call convenience: build and run a simulation.
func Simulate(cfg SimConfig) (Results, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return Results{}, err
	}
	return s.Run()
}

// DefaultStoreConfig returns the paper's energy store: a 33 mF
// supercapacitor behind a BQ25504-style harvester front-end.
func DefaultStoreConfig() StoreConfig { return energy.DefaultConfig() }

// Host integration: drive the runtime against real task implementations
// instead of the simulator (the firmware-glue layer).
type (
	// HostLoop runs a Controller against an Executor in caller-paced time.
	HostLoop = host.Loop
	// HostConfig assembles a HostLoop.
	HostConfig = host.Config
	// Executor runs application tasks for real.
	Executor = host.Executor
	// ExecutorFunc adapts a function to Executor.
	ExecutorFunc = host.ExecutorFunc
	// Outcome reports what a task execution produced.
	Outcome = host.Outcome
)

// NewHostLoop validates cfg and builds a host loop.
func NewHostLoop(cfg HostConfig) (*HostLoop, error) { return host.New(cfg) }
