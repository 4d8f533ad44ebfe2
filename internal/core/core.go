// Package core implements the Quetzal runtime (paper §4): the software a
// programmer links into an energy-harvesting application. It combines
//
//   - the Energy-aware SJF scheduling policy (Algorithm 1, via
//     internal/sched),
//   - the IBO-detection and reaction engine (Algorithm 2, via
//     internal/ibo),
//   - the PID prediction-error controller (§4.3, via internal/pid),
//   - the bit-vector trackers for task execution probability and input
//     arrival rate (§5.1, via internal/window), and
//   - the hardware power-measurement module (§5, via internal/circuit).
//
// The runtime is host-agnostic: it consumes an instantaneous input-power
// measurement and buffer occupancy through the Env argument and returns
// scheduling decisions. The discrete-event simulator (internal/sim) drives
// it exactly the way device firmware would.
package core

import (
	"fmt"

	"quetzal/internal/buffer"
	"quetzal/internal/circuit"
	"quetzal/internal/ibo"
	"quetzal/internal/model"
	"quetzal/internal/pid"
	"quetzal/internal/sched"
	"quetzal/internal/window"
)

// Env is the device state a Controller observes at a scheduling point.
type Env struct {
	Now        float64 // simulation/wall time, seconds
	InputPower float64 // instantaneous harvestable power, watts
	BufferLen  int     // current input buffer occupancy
	BufferCap  int     // input buffer capacity
	// Energy-store readings, for policies that budget against the store
	// (Quetzal itself deliberately ignores them — §4 assumes only the
	// power-measurement circuit).
	StoreEnergy   float64 // usable energy above the turn-off floor, joules
	StoreCapacity float64 // usable span: capacity − floor, joules
}

// Decision tells the host which buffered input to process next and at what
// quality.
type Decision struct {
	BufferIndex int // index into the buffer; -1 when idle
	JobID       int // job that will run
	// Options holds the per-task option indices for this execution.
	// Controllers (core.Runtime, the baselines and the policy strategies)
	// reuse one slice for every decision, so it is valid only until the
	// next NextJob call; hosts copy what they keep.
	Options    []int
	PredictedS float64
	// ModelS is the uncorrected model estimate of E[S] for the chosen
	// quality. Feedback must compare observations against this raw value,
	// not PredictedS: folding the PID output into its own reference would
	// close a positive feedback loop and make the controller hunt.
	ModelS float64
	// Quetzal diagnostics (zero-valued for baselines that skip them).
	IBOPredicted bool
	IBOAverted   bool
	Degraded     bool // some task runs below option 0
}

// Feedback reports a completed job execution back to the controller.
type Feedback struct {
	JobID      int
	Executed   []bool  // per task: whether it ran (conditional chains)
	Spawned    bool    // the job re-inserted its input for a follow-up job
	PredictedS float64 // the controller's E[S] at schedule time
	ObservedS  float64 // measured end-to-end service time
	Now        float64
	// Faults counts transient execution faults this job absorbed: each one
	// was detected at completion and forced a full re-execution, so
	// ObservedS includes the wasted passes. Policies with fault reserves
	// (e.g. EnSuRe) read this to validate their k-fault budget.
	Faults int
}

// Controller is the decision-making brain the simulator drives. core.Runtime
// implements Quetzal; internal/baseline implements the comparison systems.
type Controller interface {
	Name() string
	// NextJob selects the next buffered input and its quality assignment.
	// ok is false when the buffer is empty.
	NextJob(env Env, buf *buffer.Buffer) (Decision, bool)
	// ObserveCapture records whether a captured frame was stored.
	ObserveCapture(stored bool)
	// OnJobComplete feeds execution results back into the trackers.
	OnJobComplete(fb Feedback)
	// RatioOps returns how many P_exe/P_in ratio computations one NextJob
	// invocation performs, and whether the hardware module computes them;
	// the host charges the corresponding time/energy overhead.
	RatioOps() (ops int, usesModule bool)
}

// ReplaySensitive is an optional Controller marker: a controller whose
// decisions depend on state the event-driven stepper's crawl replay does
// not freeze (e.g. the energy-store level) returns true, and the engine
// disables the replay fast path for it. Controllers that do not implement
// the interface are treated as insensitive.
type ReplaySensitive interface {
	ReplaySensitive() bool
}

// TemperatureAware is an optional Controller marker: a controller whose
// measurement hardware models junction temperature (core.Runtime's circuit
// module) implements it, and the engine's fault layer propagates the
// scenario temperature before every scheduling decision so quantisation
// error moves with the thermal trajectory. Baselines without measurement
// hardware simply don't implement it.
type TemperatureAware interface {
	SetTemperature(tempC float64)
}

// EstimatorKind selects how the runtime computes S_e2e.
type EstimatorKind int

const (
	// HardwareModule uses the diode/ADC circuit and Algorithm 3 — the
	// full Quetzal design.
	HardwareModule EstimatorKind = iota
	// ExactDivision computes max(t_exe, E_exe/P_in) with floating-point
	// division — Quetzal without the hardware module.
	ExactDivision
	// AveragedSe2e ignores the current input power and uses an average of
	// past per-task S_e2e observations — the Avg-S_e2e baseline (§7.3).
	AveragedSe2e
)

// String names the estimator kind.
func (k EstimatorKind) String() string {
	switch k {
	case HardwareModule:
		return "hw-module"
	case ExactDivision:
		return "exact-division"
	case AveragedSe2e:
		return "avg-se2e"
	default:
		return fmt.Sprintf("EstimatorKind(%d)", int(k))
	}
}

// Config assembles a Runtime.
type Config struct {
	App    *model.App
	Policy sched.Policy  // nil defaults to Energy-aware SJF
	Kind   EstimatorKind // S_e2e estimation strategy

	TaskWindow    int     // defaults to window.DefaultTaskWindow (64)
	ArrivalWindow int     // defaults to window.DefaultArrivalWindow (256)
	CapturePeriod float64 // seconds between captures (for λ)

	PID        pid.Config // zero value defaults to pid.DefaultConfig
	DisablePID bool       // ablation: no prediction-error correction

	Circuit circuit.Config // zero value defaults to circuit.DefaultConfig

	// DisableIBOEngine runs pure Energy-aware SJF with no degradation
	// (ablation support).
	DisableIBOEngine bool
}

// Runtime is Quetzal. Construct with New.
type Runtime struct {
	cfg    Config
	app    *model.App
	policy sched.Policy

	module *circuit.Module
	d1     uint8   // latest input-power ADC code
	pin    float64 // latest input power (exact path)

	// Per-job tables, indexed by job position in app.Jobs.
	seTables [][][]circuit.SeTable   // task → option
	probs    [][]*window.ProbTracker // per-task execution trackers
	spawns   []*window.ProbTracker   // spawn-probability tracker; nil if none

	arrival *window.RateTracker
	ctrl    *pid.Controller

	// Built once so that NextJob allocates nothing.
	est       sched.Estimator
	spawnProb func(jobID int) float64
	options   []int // backing for Decision.Options
	ibo       ibo.Scratch

	// Averaged-S_e2e state: EWMA of observed per-task service time.
	avg map[[2]int]float64 // (jobID, taskIdx) → EWMA seconds

	lastFeedback float64 // time of the previous OnJobComplete (PID dt)
}

// New builds a Runtime and runs the profiling phase: every task option's
// execution power is measured once through the hardware module and its
// pre-multiplied t_exe table recorded (paper §4.1/§5.1).
func New(cfg Config) (*Runtime, error) {
	if cfg.App == nil {
		return nil, fmt.Errorf("core: Config.App is required")
	}
	if err := cfg.App.Validate(); err != nil {
		return nil, err
	}
	if cfg.CapturePeriod <= 0 {
		return nil, fmt.Errorf("core: capture period must be positive, got %g", cfg.CapturePeriod)
	}
	if cfg.TaskWindow <= 0 {
		cfg.TaskWindow = window.DefaultTaskWindow
	}
	if cfg.ArrivalWindow <= 0 {
		cfg.ArrivalWindow = window.DefaultArrivalWindow
	}
	if cfg.Policy == nil {
		cfg.Policy = sched.EnergySJF{}
	}
	if cfg.Circuit == (circuit.Config{}) {
		cfg.Circuit = circuit.DefaultConfig()
	}
	if cfg.PID == (pid.Config{}) {
		cfg.PID = pid.DefaultConfig()
	}

	n := len(cfg.App.Jobs)
	r := &Runtime{
		cfg:      cfg,
		app:      cfg.App,
		policy:   cfg.Policy,
		module:   circuit.New(cfg.Circuit),
		seTables: make([][][]circuit.SeTable, n),
		probs:    make([][]*window.ProbTracker, n),
		spawns:   make([]*window.ProbTracker, n),
		arrival:  window.NewRateTracker(cfg.ArrivalWindow, cfg.CapturePeriod, 0.5),
		ctrl:     pid.New(cfg.PID),
		avg:      map[[2]int]float64{},
	}
	r.est = r.estimator()
	r.spawnProb = r.SpawnProbability
	r.options = make([]int, model.MaxTasks) // Validate bounds any job's tasks

	// Profiling phase: record V_D2 (execution-power code) per option and
	// pre-multiply its t_exe table.
	for pos, job := range cfg.App.Jobs {
		tables := make([][]circuit.SeTable, len(job.Tasks))
		trackers := make([]*window.ProbTracker, len(job.Tasks))
		for ti, task := range job.Tasks {
			opts := make([]circuit.SeTable, len(task.Options))
			for oi, opt := range task.Options {
				code := r.module.CodeForPower(opt.Pexe)
				opts[oi] = circuit.NewSeTable(opt.Texe, code)
			}
			tables[ti] = opts
			// Conditional tasks start with the prior "always runs" (the
			// conservative assumption until history accumulates).
			trackers[ti] = window.NewProbTracker(cfg.TaskWindow, 1.0)
		}
		r.seTables[pos] = tables
		r.probs[pos] = trackers
		if job.SpawnJobID != model.NoSpawn {
			// Spawn probability starts at the conservative prior 1 (every
			// completion spawns follow-up work) and converges to the
			// observed rate.
			r.spawns[pos] = window.NewProbTracker(cfg.TaskWindow, 1.0)
		}
	}
	return r, nil
}

// Name implements Controller.
func (r *Runtime) Name() string {
	if r.cfg.DisableIBOEngine {
		return "quetzal-no-ibo[" + r.policy.Name() + "]"
	}
	if r.policy.Name() != "energy-sjf" || r.cfg.Kind != HardwareModule {
		return fmt.Sprintf("quetzal[%s,%s]", r.policy.Name(), r.cfg.Kind)
	}
	return "quetzal"
}

// SetTemperature adjusts the hardware module's junction temperature (°C).
// Profiled execution-power codes (V_D2) keep their recorded values: a large
// temperature excursion between profiling and runtime skews the code
// difference, which is physical — the module measures input power at the
// new temperature against codes profiled at the old one.
func (r *Runtime) SetTemperature(tempC float64) { r.module.SetTemperature(tempC) }

// Lambda exposes the tracked arrival-rate estimate (inputs/second).
func (r *Runtime) Lambda() float64 { return r.arrival.Lambda() }

// Correction exposes the current PID output in seconds.
func (r *Runtime) Correction() float64 {
	if r.cfg.DisablePID {
		return 0
	}
	return r.ctrl.Output()
}

// ObserveCapture implements Controller.
func (r *Runtime) ObserveCapture(stored bool) { r.arrival.Observe(stored) }

// SpawnProbability returns the tracked probability that the given job's
// completion spawns its follow-up job (1 until history accumulates).
func (r *Runtime) SpawnProbability(jobID int) float64 {
	if pos := r.position(jobID); pos >= 0 && r.spawns[pos] != nil {
		return r.spawns[pos].Probability()
	}
	return 1
}

// position returns the index of the job with the given id in app.Jobs, or
// -1. Apps hold at most model.MaxTasks jobs, and usually two.
func (r *Runtime) position(jobID int) int {
	for pos, j := range r.app.Jobs {
		if j.ID == jobID {
			return pos
		}
	}
	return -1
}

// NextJob implements Controller: measure input power, run Energy-aware SJF,
// then the IBO engine for the selected job.
func (r *Runtime) NextJob(env Env, buf *buffer.Buffer) (Decision, bool) {
	// "Measure" the instantaneous input power through the module (one mux
	// select + ADC read), also retaining the exact value for the
	// non-module estimator kinds.
	r.pin = env.InputPower
	r.d1 = r.module.CodeForPower(env.InputPower)

	sd := r.policy.Select(r.app, buf, r.est)
	if sd.BufferIndex < 0 {
		return Decision{BufferIndex: -1, JobID: -1}, false
	}
	job := r.app.JobByID(sd.JobID)
	options := r.options[:len(job.Tasks)]
	clear(options)
	dec := Decision{
		BufferIndex: sd.BufferIndex,
		JobID:       sd.JobID,
		Options:     options,
		PredictedS:  sd.ExpectedS,
		ModelS:      sd.ExpectedS,
	}
	if r.cfg.DisableIBOEngine {
		return dec, true
	}

	free := env.BufferCap - env.BufferLen
	id := r.ibo.Decide(job, ibo.Input{
		App:        r.app,
		Est:        r.est,
		Lambda:     r.arrival.Lambda(),
		FreeSlots:  free,
		Capacity:   env.BufferCap,
		Correction: r.Correction(),
		SpawnProb:  r.spawnProb,
	})
	dec.IBOPredicted = id.IBOPredicted
	dec.IBOAverted = id.Averted
	dec.PredictedS = id.ExpectedS
	if di := job.DegradableTask(); di >= 0 && id.OptionIdx > 0 {
		options[di] = id.OptionIdx
		dec.Degraded = true
	}
	dec.ModelS = sched.ExpectedService(job, r.est, func(ti int) int { return options[ti] })
	return dec, true
}

// OnJobComplete implements Controller: update the per-task execution
// bit-vectors, the PID controller, and the averaged-S_e2e EWMAs.
func (r *Runtime) OnJobComplete(fb Feedback) {
	pos := r.position(fb.JobID)
	if pos < 0 {
		return
	}
	for i, tr := range r.probs[pos] {
		ran := i < len(fb.Executed) && fb.Executed[i]
		tr.Observe(ran)
	}
	if st := r.spawns[pos]; st != nil {
		st.Observe(fb.Spawned)
	}
	if !r.cfg.DisablePID && fb.ObservedS > 0 {
		dt := fb.Now - r.lastFeedback
		if dt <= 0 {
			dt = 1e-3
		}
		r.ctrl.Update(fb.PredictedS, fb.ObservedS, dt)
		r.lastFeedback = fb.Now
	}
	if r.cfg.Kind == AveragedSe2e && fb.ObservedS > 0 {
		// Attribute the whole observed service time to the job's executed
		// tasks proportionally to their profiled t_exe — the baseline has
		// no per-task timers, it averages what it can see.
		job := r.app.JobByID(fb.JobID)
		if job == nil {
			return
		}
		var texeSum float64
		for i, task := range job.Tasks {
			if i < len(fb.Executed) && fb.Executed[i] {
				texeSum += task.Options[0].Texe
			}
		}
		if texeSum <= 0 {
			return
		}
		const alpha = 0.2
		for i, task := range job.Tasks {
			if !(i < len(fb.Executed) && fb.Executed[i]) {
				continue
			}
			share := fb.ObservedS * task.Options[0].Texe / texeSum
			key := [2]int{fb.JobID, i}
			if old, ok := r.avg[key]; ok {
				r.avg[key] = old + alpha*(share-old)
			} else {
				r.avg[key] = share
			}
		}
	}
}

// RatioOps implements Controller: one ratio per task in the app (the SJF
// pass) plus one per option of the widest degradable task (the reaction
// pass), per §5.1.
func (r *Runtime) RatioOps() (int, bool) {
	n, maxOpts := 0, 0
	for _, j := range r.app.Jobs {
		n += len(j.Tasks)
		if di := j.DegradableTask(); di >= 0 && len(j.Tasks[di].Options) > maxOpts {
			maxOpts = len(j.Tasks[di].Options)
		}
	}
	return n + maxOpts, r.cfg.Kind == HardwareModule
}

// estimator returns the sched.Estimator for the configured kind.
func (r *Runtime) estimator() sched.Estimator {
	switch r.cfg.Kind {
	case ExactDivision:
		return &exactEstimator{r}
	case AveragedSe2e:
		return &avgEstimator{r}
	default:
		return &hwEstimator{r}
	}
}

// hwEstimator evaluates Algorithm 3 against the latest d1 code.
type hwEstimator struct{ r *Runtime }

func (e *hwEstimator) Se2e(jobID, taskIdx, optIdx int) float64 {
	return e.r.seTables[e.r.position(jobID)][taskIdx][optIdx].Se2e(e.r.d1)
}

func (e *hwEstimator) Probability(jobID, taskIdx int) float64 {
	return e.r.probs[e.r.position(jobID)][taskIdx].Probability()
}

// exactEstimator computes S_e2e with floating-point division.
type exactEstimator struct{ r *Runtime }

func (e *exactEstimator) Se2e(jobID, taskIdx, optIdx int) float64 {
	opt := e.r.app.JobByID(jobID).Tasks[taskIdx].Options[optIdx]
	return circuit.Se2eExact(opt.Texe, opt.Pexe, e.r.pin)
}

func (e *exactEstimator) Probability(jobID, taskIdx int) float64 {
	return e.r.probs[e.r.position(jobID)][taskIdx].Probability()
}

// avgEstimator ignores input power: past observed service times only.
type avgEstimator struct{ r *Runtime }

func (e *avgEstimator) Se2e(jobID, taskIdx, optIdx int) float64 {
	task := e.r.app.JobByID(jobID).Tasks[taskIdx]
	opt := task.Options[optIdx]
	if v, ok := e.r.avg[[2]int{jobID, taskIdx}]; ok {
		// Scale the task-level average to the option by t_exe ratio: the
		// baseline assumes service time tracks compute time.
		return v * opt.Texe / task.Options[0].Texe
	}
	return opt.Texe
}

func (e *avgEstimator) Probability(jobID, taskIdx int) float64 {
	return e.r.probs[e.r.position(jobID)][taskIdx].Probability()
}
