// Package sim is the compatibility facade over internal/engine, keeping the
// original all-in-one configuration surface: one Config selects the device
// scenario, the time-advance engine, and the instrumentation (timeline,
// invariant checks, event log), and one Simulator runs it.
//
// The simulation itself mirrors the paper's custom simulator (§6.3): time
// advances in 1 ms steps (or event-bounded segments, see EngineKind);
// harvested energy is added to the storage element every step; a task
// "runs" by draining the store at its profiled power until its profiled
// latency has elapsed; and a just-in-time checkpointing system preserves
// task progress across power failures (the device browns out at VOff,
// recharges to VOn, pays a restore cost and resumes).
//
// All device physics lives in engine.Machine, the time-advance loops in
// engine.Stepper implementations, and the instrumentation in engine
// observers; callers that want to compose those layers differently (custom
// steppers, extra observers) should use internal/engine directly.
package sim

import (
	"context"
	"io"

	"quetzal/internal/buffer"
	"quetzal/internal/device"
	"quetzal/internal/energy"
	"quetzal/internal/engine"
	"quetzal/internal/faults"
	"quetzal/internal/invariant"
	"quetzal/internal/metrics"
	"quetzal/internal/model"
	"quetzal/internal/obs"
	"quetzal/internal/trace"

	"quetzal/internal/core"
)

// Config describes one simulation run.
type Config struct {
	Profile device.Profile
	App     *model.App // nil → Profile.PersonDetectionApp()
	// Controller is the decision-making brain; Policy names a registered
	// policy (internal/policy) to build instead. Exactly one must be set.
	Controller core.Controller
	Policy     string

	Power  trace.PowerTrace
	Events *trace.EventTrace

	Store energy.StoreConfig // zero → energy.DefaultConfig()

	// Engine selects the time-advance mechanism: the paper's fixed
	// 1 ms increments (default, reference semantics) or the event-driven
	// fast path (see EngineKind).
	Engine EngineKind

	CapturePeriod  float64 // seconds between captures; default 1 (1 FPS)
	StepDt         float64 // simulator step; default 0.001 (1 ms)
	Duration       float64 // simulated seconds; 0 → events end + DrainTime
	DrainTime      float64 // extra time after the last event; default 60 s
	BufferCapacity int     // 0 → Profile.BufferCapacity

	Seed int64 // classifier coin flips

	// Checkpoint selects how execution progress survives power failures;
	// the default is the paper's JIT checkpointing (§6.3). Atomic tasks
	// always restart regardless of policy.
	Checkpoint CheckpointPolicy
	// CheckpointInterval is the progress between periodic checkpoints in
	// seconds (PeriodicCheckpoint only; default 1 s).
	CheckpointInterval float64

	// TexeJitterOverride, when positive, applies the given fractional
	// latency jitter to every task option (the §8 variable-execution-cost
	// extension) regardless of the options' own TexeJitter.
	TexeJitterOverride float64

	// Timeline, when non-nil, receives one CSV row per TimelineInterval of
	// simulated time: time, input power, store energy, buffer occupancy,
	// device state. For plotting and debugging.
	Timeline         io.Writer
	TimelineInterval float64 // default 1 s

	// Checks toggles the runtime invariant checker (internal/invariant):
	// energy-store bounds and conservation, buffer bounds, monotonic time,
	// and end-of-run accounting identities, verified every step/segment —
	// including every step the crawl replay commits, which stays engaged
	// under checks. The default (ChecksAuto) enables it, so every test and
	// experiment pays the per-step check; benchmarks opt out with ChecksOff.
	Checks CheckMode

	// EventLog, when non-nil, receives one line per discrete simulation
	// event (capture, arrival, IBO drop, scheduling decision, classify
	// verdict, transmission, job completion/abort, power transitions,
	// checkpoint/rollback, PID update). The golden-trace regression layer
	// hashes this stream to fingerprint a run's full behavior; it is also
	// readable for debugging.
	EventLog io.Writer

	// Trace, when non-nil, receives the run rendered as Chrome trace_event
	// JSON (load in chrome://tracing or Perfetto); TraceJSONL receives the
	// same events as JSON objects, one per line. Both are derived from the
	// event-log stream by an obs.Exporter, which also audits it: a dropped
	// or reordered event fails the run at the end.
	Trace      io.Writer
	TraceJSONL io.Writer

	// Metrics, when non-nil, collects run metrics: per-step samples via an
	// obs.MachineObserver (step lengths, store level, buffer occupancy) and
	// the end-of-run aggregates. Dump with Registry.WriteText.
	Metrics *obs.Registry

	Environment string // label copied into the results

	// Faults declares the hardware-realism scenario (internal/faults):
	// transient task faults, harvester dropout windows, ADC stuck bits,
	// per-sample measurement cost and junction temperature. Zero = ideal
	// hardware, guaranteed cost-free.
	Faults faults.Spec
	// FaultSeed seeds the fault draws; 0 derives from Seed. Fleets pass a
	// shard-independent split seed (fleet.StreamFaults).
	FaultSeed int64
}

// CheckMode selects whether the invariant checker runs.
type CheckMode int

const (
	// ChecksAuto (the zero value) enables the invariant checker.
	ChecksAuto CheckMode = iota
	// ChecksOff disables it — for hot benchmark loops only.
	ChecksOff
)

// EngineKind selects the time-advance mechanism; see engine.Kind.
type EngineKind = engine.Kind

const (
	// FixedIncrement advances in constant StepDt steps — the paper's §6.3
	// simulator and the reference semantics.
	FixedIncrement = engine.FixedIncrement
	// EventDriven advances in variable-length segments bounded by the next
	// discrete event; typically 50–200× faster with statistically matching
	// results. It also replays brown-out crawl regimes as constant-addend
	// updates, an order of magnitude faster on starved workloads, with the
	// invariant checker verifying each replayed step; timelines and metrics
	// sinks keep the per-segment path, with bit-identical results either way
	// (pinned by golden parity). See engine.EventDriven and DESIGN.md §13.
	EventDriven = engine.EventDriven
	// Lockstep selects the same stepper as EventDriven under its own name,
	// which run ids and store keys carry. See engine.Lockstep.
	Lockstep = engine.Lockstep
)

// CheckpointPolicy selects the intermittent-computing progress model; see
// engine.CheckpointPolicy.
type CheckpointPolicy = engine.CheckpointPolicy

const (
	// JITCheckpoint saves state just in time before the power failure
	// (the paper's simulator, citing [8, 9, 47, 61, 64]).
	JITCheckpoint = engine.JITCheckpoint
	// NoCheckpoint loses the current task's progress on every power
	// failure.
	NoCheckpoint = engine.NoCheckpoint
	// PeriodicCheckpoint saves progress every CheckpointInterval seconds
	// of execution.
	PeriodicCheckpoint = engine.PeriodicCheckpoint
)

// Simulator executes one configured run. Construct with New. It wires a
// Config into the engine layers: an engine.Machine for the device physics,
// an engine.Stepper for the configured EngineKind, and observers for the
// timeline and invariant checks.
type Simulator struct {
	m        *engine.Machine
	stepper  engine.Stepper
	inv      *invariant.Checker
	exporter *obs.Exporter
}

// New validates the configuration and builds a Simulator.
func New(cfg Config) (*Simulator, error) {
	engCfg := engine.Config{
		Profile:            cfg.Profile,
		App:                cfg.App,
		Controller:         cfg.Controller,
		Policy:             cfg.Policy,
		Power:              cfg.Power,
		Events:             cfg.Events,
		Store:              cfg.Store,
		CapturePeriod:      cfg.CapturePeriod,
		StepDt:             cfg.StepDt,
		Duration:           cfg.Duration,
		DrainTime:          cfg.DrainTime,
		BufferCapacity:     cfg.BufferCapacity,
		Seed:               cfg.Seed,
		Checkpoint:         cfg.Checkpoint,
		CheckpointInterval: cfg.CheckpointInterval,
		TexeJitterOverride: cfg.TexeJitterOverride,
		EventLog:           cfg.EventLog,
		Environment:        cfg.Environment,
		Faults:             cfg.Faults,
		FaultSeed:          cfg.FaultSeed,
	}
	var exporter *obs.Exporter
	if cfg.Trace != nil || cfg.TraceJSONL != nil {
		exporter = obs.NewExporter(obs.ExporterConfig{
			Chrome:  cfg.Trace,
			JSONL:   cfg.TraceJSONL,
			Metrics: cfg.Metrics,
		})
		if engCfg.EventLog != nil {
			engCfg.EventLog = io.MultiWriter(engCfg.EventLog, exporter)
		} else {
			engCfg.EventLog = exporter
		}
	}
	m, err := engine.New(engCfg)
	if err != nil {
		return nil, err
	}
	s := &Simulator{m: m, stepper: engine.StepperFor(cfg.Engine), exporter: exporter}
	if cfg.Timeline != nil {
		m.Observe(engine.NewTimelineWriter(cfg.Timeline, cfg.TimelineInterval))
	}
	if cfg.Metrics != nil {
		m.Observe(obs.NewMachineObserver(cfg.Metrics))
	}
	if cfg.Checks != ChecksOff {
		icfg := invariant.Config{}
		if cfg.Faults.Enabled() {
			// Materialise the realism spec's checkable consequences: the
			// exact per-sample measurement-energy identity and the dropout
			// windows over the (normalised) run duration.
			icfg.MeasPerSampleJ, _ = cfg.Faults.MeasCost()
			icfg.DropoutWindows = cfg.Faults.Windows(m.Duration())
		}
		s.inv = invariant.New(icfg)
		m.Observe(engine.InvariantObserver{C: s.inv})
	}
	return s, nil
}

// Run executes the configured simulation and returns its results.
func (s *Simulator) Run() (metrics.Results, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the main loop polls ctx
// every few thousand steps and abandons the run with a wrapped context
// error noting the simulated time reached. Sweep drivers use this for
// per-run timeouts and ctrl-C.
func (s *Simulator) RunContext(ctx context.Context) (metrics.Results, error) {
	res, err := s.m.Run(ctx, s.stepper)
	if s.exporter != nil {
		// Close flushes the Chrome JSON trailer and surfaces the stream
		// audit: a dropped or reordered event line fails the run.
		if cerr := s.exporter.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return res, err
}

// RunIntoContext is RunContext through the engine's results-sink seam: on
// success the sink receives a pointer to the machine's own results (valid
// only inside the callback) instead of a by-value copy. Fleet runs use this
// to reduce each device to a metrics.Summary without copying Results.
func (s *Simulator) RunIntoContext(ctx context.Context, sink func(*metrics.Results)) error {
	err := s.m.RunInto(ctx, s.stepper, sink)
	if s.exporter != nil {
		if cerr := s.exporter.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Machine exposes the underlying engine machine, for tests that hook or
// perturb the live device state.
func (s *Simulator) Machine() *engine.Machine { return s.m }

// Checker exposes the invariant checker for inspection in tests (nil when
// checks are off).
func (s *Simulator) Checker() *invariant.Checker { return s.inv }

// Results returns the accumulated results so far (useful mid-run in tests).
func (s *Simulator) Results() metrics.Results { return s.m.Results() }

// Buffer exposes the input buffer for inspection in tests.
func (s *Simulator) Buffer() *buffer.Buffer { return s.m.Buffer() }

// Store exposes the energy store for inspection in tests.
func (s *Simulator) Store() *energy.Store { return s.m.Store() }
