package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"quetzal/internal/buffer"
	"quetzal/internal/core"
	"quetzal/internal/energy"
	"quetzal/internal/faults"
	"quetzal/internal/invariant"
	"quetzal/internal/metrics"
	"quetzal/internal/model"
	"quetzal/internal/randsrc"
)

// Machine is the pure device state machine: the simulated sensor node (energy
// store, capture pipeline, input buffer, task execution with checkpointing)
// advanced across steps of arbitrary length by a Stepper. Construct with New,
// register instrumentation with Observe, execute with Run.
//
// The simulated device runs in parallel to the simulated environment: a
// camera captures frames at a fixed rate regardless of energy or activity;
// frames that coincide with a sensing event pass the pixel-difference
// pre-filter and arrive at the input buffer; the controller under test
// (Quetzal or a baseline) picks buffered inputs to process and the quality
// to process them at. Before each selected job runs, the controller's
// scheduling/degradation logic is charged its own time and energy overhead
// (§6.3: "we evaluated any scheduling policy and degradation-logic
// pertaining to the simulated system, incurring its overheads").
type Machine struct {
	cfg   Config
	app   *model.App
	ctl   core.Controller
	store *energy.Store
	buf   *buffer.Buffer
	rng   *rand.Rand
	res   metrics.Results

	// Per-invocation controller overhead.
	ovhTime, ovhPower float64

	// flt is the hardware-realism state (nil when cfg.Faults is the zero
	// Spec — the disabled path costs exactly two nil checks per step at
	// most, pinned by the zero-cost fingerprint/alloc tests).
	flt *faultState

	// Live execution state.
	now         float64
	nextCapture float64
	nextSeq     uint64
	captures    captureRing // capture pipeline work in flight
	exec        *jobExec    // job currently executing, nil if idle
	execState   jobExec     // backing storage for exec, reused across jobs
	restoreLeft float64     // restore time still owed after a brownout
	wasOn       bool

	observers []Observer

	// chk is the invariant checker an InvariantObserver registered (nil
	// when the run is unchecked); it subsumes the end-of-run Check. The
	// machine calls it directly after every committed step, replayed ones
	// included, with chkSt filled in place.
	chk   *invariant.Checker
	chkSt invariant.StepState

	// powNow/pow memoize cfg.Power.Power at one instant: segment, Step and
	// the controller all sample the trace at the same m.now, and every
	// PowerTrace is a pure function of time. powNow starts NaN (no sample).
	powNow, pow float64

	// replaySteps counts steps committed by the crawl replay
	// (lockstep.go) instead of the full segment/step path; tests assert the
	// fast path actually engages on crawl-heavy workloads.
	replaySteps int
	// replaySensitive disables the crawl replay: the controller declared
	// (via core.ReplaySensitive) that its decisions read state the replay's
	// crawl-regime classifier does not freeze.
	replaySensitive bool

	// StepHook, when set (tests only), runs before every step/segment;
	// mutation tests use it to inject accounting bugs mid-run and prove
	// the invariant checker catches them.
	StepHook func(step int)
	// DebugHook, when set (tests only), runs after each controller
	// decision.
	DebugHook func(now float64, dec core.Decision, lambda, correction float64)
}

// pendingCapture is a frame whose capture pipeline (readout+diff+JPEG) is
// still running; the store/discard decision lands when it finishes.
type pendingCapture struct {
	remaining   float64
	different   bool // an event was active: frame passes the pre-filter
	interesting bool
	capturedAt  float64
}

// maxPendingCaptures bounds the capture pipeline's backlog: frames arriving
// while it is full are lost (a starved pipeline cannot keep sensing).
const maxPendingCaptures = 4

// captureRing is a fixed-capacity FIFO for in-flight captures. The bound is
// part of the device model (see maxPendingCaptures), so the ring replaces
// the old append/reslice queue and keeps the hot path allocation-free.
type captureRing struct {
	buf     [maxPendingCaptures]pendingCapture
	head, n int
}

func (r *captureRing) Len() int               { return r.n }
func (r *captureRing) Full() bool             { return r.n == maxPendingCaptures }
func (r *captureRing) Front() *pendingCapture { return &r.buf[r.head] }

func (r *captureRing) Push(c pendingCapture) {
	r.buf[(r.head+r.n)%maxPendingCaptures] = c
	r.n++
}

func (r *captureRing) PopFront() pendingCapture {
	c := r.buf[r.head]
	r.head = (r.head + 1) % maxPendingCaptures
	r.n--
	return c
}

// jobExec is one job execution in progress. The machine keeps a single
// backing instance and reuses its slices, so starting a job allocates
// nothing once the slices have grown to the app's largest task count.
type jobExec struct {
	input      buffer.Input
	job        *model.Job
	options    []int
	taskIdx    int
	remaining  float64 // remaining latency of the current task
	fullTexe   float64 // this execution's sampled latency for the current task
	ckptAt     float64 // remaining-value at the last periodic checkpoint
	started    bool    // the current task has drawn its first energy
	executed   []bool
	positive   bool // classify-chain state; true until a classifier says no
	startedAt  float64
	predictedS float64
	modelS     float64
	degraded   bool
	restarts   int     // progress-losing restarts of the current task
	ckptFail   float64 // ckptAt at the previous power failure (-1: none yet)
	aborted    bool
	faults     int // transient faults this job absorbed (→ Feedback.Faults)
}

// faultState is the live hardware-realism state derived from Config.Faults.
// Everything it draws is a pure function of (spec, seed, completion index,
// time) so every stepper — and every shard layout of the same fleet —
// replays the identical fault sequence.
type faultState struct {
	spec         faults.Spec
	seed         int64
	left         int    // injectable task faults remaining; -1 = unlimited
	idx          uint64 // monotone task-completion counter (fault draw index)
	measJ, measT float64
	corrupt      bool // spec has stuck ADC bits
	tempCtl      core.TemperatureAware
	lastTemp     float64
}

// New validates the configuration and builds a Machine.
func New(cfg Config) (*Machine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:    cfg,
		app:    cfg.App,
		ctl:    cfg.Controller,
		store:  energy.NewStore(cfg.Store),
		buf:    buffer.New(cfg.BufferCapacity),
		rng:    randsrc.New(cfg.Seed),
		wasOn:  true,
		powNow: math.NaN(),
	}
	m.res.System = cfg.Controller.Name()
	m.res.Environment = cfg.Environment
	if rs, ok := cfg.Controller.(core.ReplaySensitive); ok {
		m.replaySensitive = rs.ReplaySensitive()
	}
	if cfg.Faults.Enabled() {
		f := &faultState{spec: cfg.Faults, seed: cfg.FaultSeed}
		switch {
		case cfg.Faults.TaskFaultPct == 0:
			f.left = 0
		case cfg.Faults.TaskFaultLimit > 0:
			f.left = cfg.Faults.TaskFaultLimit
		default:
			f.left = -1
		}
		f.measJ, f.measT = cfg.Faults.MeasCost()
		f.corrupt = cfg.Faults.StuckHigh != 0 || cfg.Faults.StuckLow != 0
		if tc, ok := cfg.Controller.(core.TemperatureAware); ok && cfg.Faults.TempC != 0 {
			// Propagate the scenario temperature before any decision. The
			// controller keeps its 25 °C profiling codes (core.Runtime
			// documents why), so the excursion skews the code difference
			// exactly as it would on hardware.
			f.tempCtl = tc
			f.lastTemp = cfg.Faults.TemperatureAt(0)
			tc.SetTemperature(f.lastTemp)
		}
		m.flt = f
	}

	ops, usesModule := cfg.Controller.RatioOps()
	if ops > 0 {
		t, e := cfg.Profile.MCU.InvocationOverhead(ops, usesModule)
		m.ovhTime = t
		if t > 0 {
			m.ovhPower = e / t
		}
	}
	return m, nil
}

// Observe appends observers to the pipeline. Register before Run; the
// registration order is the per-step invocation order. The first
// InvariantObserver is not appended: the machine takes its checker over
// (see InvariantObserver) and runs it after the other observers, each step
// and at the end of the run.
func (m *Machine) Observe(obs ...Observer) {
	for _, o := range obs {
		if io, ok := o.(InvariantObserver); ok && m.chk == nil {
			m.chk = io.C
			m.chkSt.Store.Capacity = m.store.Capacity()
			m.chkSt.BufferCap = m.buf.Capacity()
			continue
		}
		m.observers = append(m.observers, o)
	}
}

// Run executes the machine under the given stepper (nil → fixed-increment)
// until cfg.Duration, then finalises: store statistics are copied into the
// results, every observer's OnFinish runs, then the invariant checker's.
// When no InvariantObserver is registered, the results' own accounting
// identities are still verified.
func (m *Machine) Run(ctx context.Context, s Stepper) (metrics.Results, error) {
	err := m.RunInto(ctx, s, nil)
	return m.res, err
}

// RunInto is the results-sink form of Run: instead of returning the ~90-field
// Results by value, it executes the run and, on success, hands the sink a
// pointer into the machine's own results. Fleet-scale callers reduce through
// the pointer (e.g. metrics.Summarize) and let the machine go, so nothing the
// size of Results outlives the device. The pointer is only valid inside the
// callback; sink may be nil.
func (m *Machine) RunInto(ctx context.Context, s Stepper, sink func(*metrics.Results)) error {
	if s == nil {
		s = FixedStepper{}
	}
	if err := s.Run(ctx, m); err != nil {
		return err
	}
	m.finish()
	for _, o := range m.observers {
		if err := o.OnFinish(m); err != nil {
			return err
		}
	}
	if m.chk != nil {
		if err := (InvariantObserver{C: m.chk}).OnFinish(m); err != nil {
			return err
		}
	} else {
		if err := m.res.Check(); err != nil {
			return fmt.Errorf("engine: inconsistent accounting: %w", err)
		}
	}
	if sink != nil {
		sink(&m.res)
	}
	return nil
}

// Duration returns the configured simulated run length in seconds.
func (m *Machine) Duration() float64 { return m.cfg.Duration }

// Now returns the current simulated time. Within a step this is the step's
// start; steppers commit the advance.
func (m *Machine) Now() float64 { return m.now }

// InputPower returns the harvestable input power at the current instant.
func (m *Machine) InputPower() float64 {
	if m.now != m.powNow {
		m.samplePower()
	}
	return m.pow
}

// samplePower is InputPower's memo miss, kept out of line so InputPower
// inlines at its call sites.
//
//go:noinline
func (m *Machine) samplePower() {
	m.powNow = m.now
	m.pow = m.cfg.Power.Power(m.now)
}

// Results returns the accumulated results so far (useful mid-run).
func (m *Machine) Results() metrics.Results { return m.res }

// Buffer exposes the input buffer for observers and tests.
func (m *Machine) Buffer() *buffer.Buffer { return m.buf }

// Store exposes the energy store for observers and tests.
func (m *Machine) Store() *energy.Store { return m.store }

// PendingCaptures counts frames still inside the capture pipeline.
func (m *Machine) PendingCaptures() int { return m.captures.Len() }

// ReplayedSteps counts steps the crawl replay committed without full
// segment/step dispatch (0 under the fixed-increment stepper, with an
// observer or StepHook attached, or when the fast path never engaged). The
// invariant checker does not count as an observer here: it checks every
// replayed step.
func (m *Machine) ReplayedSteps() int { return m.replaySteps }

// Phase names the machine's current activity, in the device's priority
// order: "off", "capture", "restore", "exec:<job>", or "idle".
func (m *Machine) Phase() string {
	switch {
	case !m.store.On():
		return "off"
	case m.captures.Len() > 0:
		return "capture"
	case m.restoreLeft > 0:
		return "restore"
	case m.exec != nil:
		return "exec:" + m.exec.job.Name
	default:
		return "idle"
	}
}

// Snapshot captures the live state the invariant checker observes.
func (m *Machine) Snapshot() invariant.StepState {
	st := m.store.Stats()
	return invariant.StepState{
		Now: m.now,
		Store: invariant.StoreState{
			Energy:    m.store.Energy(),
			Capacity:  m.store.Capacity(),
			Harvested: st.HarvestedJ,
			Consumed:  st.ConsumedJ,
			Leaked:    st.LeakedJ,
		},
		BufferLen: m.buf.Len(),
		BufferCap: m.buf.Capacity(),
	}
}

// EndStep commits one step to the observer pipeline. Steppers call it
// exactly once per committed step, after the clock bookkeeping; it is the
// single site observers and the invariant checker are invoked from outside
// the crawl replay.
func (m *Machine) EndStep(dt float64) {
	if len(m.observers) != 0 || m.chk != nil {
		m.endStep(dt)
	}
}

// endStep is EndStep's instrumented path, kept out of line so an
// uninstrumented step pays two inlined tests. The checker's observation is
// filled in place from the live state; its constant fields were set when
// the checker registered.
func (m *Machine) endStep(dt float64) {
	for _, o := range m.observers {
		o.OnStep(m, dt)
	}
	if m.chk == nil {
		return
	}
	st := &m.chkSt
	st.Now = m.now
	st.Store.Energy, st.Store.Harvested, st.Store.Consumed = m.store.ReplayLedger()
	st.Store.Leaked = m.store.Leaked()
	st.BufferLen = m.buf.Len()
	m.chk.Step(st)
}

// Hook runs the test-only StepHook, when set. Steppers call it before every
// step/segment with the step index.
func (m *Machine) Hook(step int) {
	if m.StepHook != nil {
		m.StepHook(step)
	}
}

// logging reports whether an event log is configured. Hot call sites guard
// logf calls with it: the variadic args are boxed at the call site, so an
// unguarded logf heap-allocates even when no log is attached (that boxing
// was the entire 1.6k-allocs/run cost of the pre-guard hot path).
func (m *Machine) logging() bool { return m.cfg.EventLog != nil }

// logf appends one line to the event log, when configured. The stream is
// the behavioral fingerprint the golden-trace layer hashes, so call sites
// must emit deterministically (no map iteration, no wall-clock).
func (m *Machine) logf(format string, args ...any) {
	if m.cfg.EventLog == nil {
		return
	}
	fmt.Fprintf(m.cfg.EventLog, format, args...)
}

// canceled wraps the context's error with the simulated time reached.
func (m *Machine) canceled(ctx context.Context) error {
	return fmt.Errorf("engine: run canceled at t=%.3fs: %w", m.now, context.Cause(ctx))
}

// Step advances the world by dt from the current instant. The transition is
// exact for any dt over which the dynamics are piecewise-linear: the fixed
// stepper uses a constant 1 ms, the event stepper the longest event-free
// segment. Step does not advance the clock — the stepper owns that
// bookkeeping (the two disciplines stamp time differently).
func (m *Machine) Step(dt float64) {
	// Environment: harvest into the store (this may restart the device).
	m.store.Harvest(m.InputPower(), dt)

	on := m.store.On()
	if m.wasOn && !on {
		// Power failed: apply the checkpoint policy to in-flight work.
		if m.logging() {
			m.logf("%.6f brownout\n", m.now)
		}
		m.onPowerFailure()
	}
	if !m.wasOn && on {
		// Power came back: owe the checkpoint restore before any work.
		if m.logging() {
			m.logf("%.6f poweron\n", m.now)
		}
		m.restoreLeft = m.cfg.Profile.MCU.RestoreTime
	}
	m.wasOn = on

	// Little's-Law instrumentation: time-integral of queue occupancy. This
	// is results accounting — part of the machine's own bookkeeping, not an
	// observer — because every consumer of Results depends on it.
	m.res.OccupancyIntegral += float64(m.buf.Len()) * dt

	// Camera: captures fire at a fixed rate no matter what.
	for m.now >= m.nextCapture {
		m.capture()
		m.nextCapture += m.cfg.CapturePeriod
	}

	// The capture pipeline is an always-on priority subsystem: it keeps
	// sensing while the compute domain is browned out (that independence
	// is exactly why the buffer can overflow at low power). It preempts
	// job processing while active.
	if m.captures.Len() > 0 {
		c := m.captures.Front()
		// Draw only for the time the pipeline can actually use: with
		// variable-length steps (the event-driven engine) dt may exceed
		// the remaining capture work.
		use := dt
		if c.remaining < use {
			use = c.remaining
		}
		frac := m.store.DrawPriority(m.app.CapturePexe, use)
		c.remaining -= use * frac
		if c.remaining <= 1e-12 {
			done := m.captures.PopFront()
			// The pipeline completes use seconds into this step, not at its
			// start; stamp the arrival there so both engines agree on when
			// the input joins the buffer (the event engine's segments make
			// the left endpoint up to CaptureTexe early otherwise).
			prev := m.now
			m.now = prev + use
			m.finishCapture(done)
			m.now = prev
		}
		return
	}

	if !on {
		return // compute browned out
	}

	switch {
	case m.restoreLeft > 0:
		frac := m.store.Draw(m.cfg.Profile.MCU.RestorePower, dt)
		m.restoreLeft -= dt * frac
	case m.exec != nil:
		m.runTask(dt)
	case m.buf.Len() > 0:
		m.invokeController(dt)
	default:
		m.store.Draw(m.cfg.Profile.MCU.IdlePower, dt)
	}
}

// capture registers one camera frame at the current instant.
func (m *Machine) capture() {
	m.res.Captures++
	ev, active := m.cfg.Events.ActiveAt(m.now)
	different := active
	interesting := active && ev.Interesting

	// The camera runs from the priority path, so a frame is lost only when
	// the store is fully drained to the floor (no energy for even the
	// readout) or the pipeline has a starved backlog.
	if (m.store.UsableEnergy() <= 0 && !m.store.On()) || m.captures.Full() {
		m.res.CaptureMisses++
		if interesting {
			m.res.MissedInteresting++
		}
		if m.logging() {
			m.logf("%.6f capture-miss interesting=%v\n", m.now, interesting)
		}
		return
	}
	if m.logging() {
		m.logf("%.6f capture different=%v interesting=%v\n", m.now, different, interesting)
	}
	m.captures.Push(pendingCapture{
		remaining:   m.app.CaptureTexe,
		different:   different,
		interesting: interesting,
		capturedAt:  m.now,
	})
}

// finishCapture applies the pre-filter result once the pipeline completes.
func (m *Machine) finishCapture(c pendingCapture) {
	m.ctl.ObserveCapture(c.different)
	if !c.different {
		return // unchanged frame, cheaply discarded
	}
	m.res.Arrivals++
	if c.interesting {
		m.res.InterestingArrivals++
	}
	in := buffer.Input{
		Seq:         m.nextSeq,
		CapturedAt:  c.capturedAt,
		Interesting: c.interesting,
		JobID:       m.app.EntryJobID,
		EnqueuedAt:  m.now,
	}
	m.nextSeq++
	if !m.buf.Push(in, false) {
		// Input buffer overflow: the event the paper fights.
		if c.interesting {
			m.res.IBODropsInteresting++
		} else {
			m.res.IBODropsOther++
		}
		if m.logging() {
			m.logf("%.6f ibodrop seq=%d interesting=%v\n", m.now, in.Seq, c.interesting)
		}
		return
	}
	if m.logging() {
		m.logf("%.6f arrive seq=%d interesting=%v occ=%d\n", m.now, in.Seq, c.interesting, m.buf.Len())
	}
}

// invokeController runs the scheduling + degradation logic, charging its
// overhead, and starts the selected job.
func (m *Machine) invokeController(dt float64) {
	m.res.SchedInvocations++
	if m.ovhTime > 0 {
		// The overhead of one invocation is far below one step; charge it
		// as a lump of time and energy.
		m.res.OverheadSeconds += m.ovhTime
		m.res.OverheadJoules += m.ovhTime * m.ovhPower
		m.store.Draw(m.ovhPower, m.ovhTime)
		if !m.store.On() {
			return
		}
	}
	if f := m.flt; f != nil {
		if f.measJ > 0 || f.measT > 0 {
			// Measurement is not free (Ashraf et al.): charge the ADC
			// sample(s) this invocation performs — one for input power,
			// plus one for the store level when the policy reads it
			// (store-reading policies are exactly the ReplaySensitive
			// ones). Like the overhead lump, MeasJoules records the
			// INTENDED energy regardless of what the store could supply,
			// which makes MeasJoules == MeasSamples × per-sample J an
			// exact end-of-run identity the invariant checker holds.
			reads := 1
			if m.replaySensitive {
				reads = 2
			}
			t := f.measT * float64(reads)
			j := f.measJ * float64(reads)
			m.res.MeasSamples += reads
			m.res.MeasSeconds += t
			m.res.MeasJoules += j
			if j > 0 {
				effT := t
				if effT <= 0 {
					effT = 1e-9 // zero-latency spec: draw as a spike
				}
				m.store.Draw(j/effT, effT)
				if !m.store.On() {
					return
				}
			}
		}
		if f.tempCtl != nil {
			if temp := f.spec.TemperatureAt(m.now); temp != f.lastTemp {
				f.tempCtl.SetTemperature(temp)
				f.lastTemp = temp
			}
		}
	}
	env := core.Env{
		Now:           m.now,
		InputPower:    m.InputPower(),
		BufferLen:     m.buf.Len(),
		BufferCap:     m.buf.Capacity(),
		StoreEnergy:   m.store.UsableEnergy(),
		StoreCapacity: m.store.Capacity() - m.store.Floor(),
	}
	if f := m.flt; f != nil && f.corrupt {
		// Stuck ADC bits corrupt only the MEASURED store level the
		// controller sees, never the physical store. Quetzal deliberately
		// ignores StoreEnergy (§4), so only store-reading policies feel it.
		env.StoreEnergy = f.spec.CorruptStore(env.StoreEnergy, env.StoreCapacity)
	}
	dec, ok := m.ctl.NextJob(env, m.buf)
	if !ok {
		m.store.Draw(m.cfg.Profile.MCU.IdlePower, dt)
		return
	}
	// The input stays in its buffer slot while the job runs — the image
	// still occupies device memory. It leaves (or is re-tagged in place)
	// only when the job completes.
	in, err := m.buf.At(dec.BufferIndex)
	if err != nil {
		// The controller returned a stale index; drop the decision.
		return
	}
	job := m.app.JobByID(dec.JobID)
	if job == nil {
		return
	}
	if m.DebugHook != nil {
		lam, corr := 0.0, 0.0
		if rt, ok := m.ctl.(*core.Runtime); ok {
			lam, corr = rt.Lambda(), rt.Correction()
		}
		m.DebugHook(m.now, dec, lam, corr)
	}
	if dec.IBOPredicted {
		m.res.IBOPredictions++
		if dec.IBOAverted {
			m.res.IBOsAverted++
		}
	}
	e := &m.execState
	e.input = in
	e.job = job
	// The decision's option vector is copied (never aliased) into the
	// reused slice, then clamped to each task's valid range.
	if cap(e.options) < len(job.Tasks) {
		e.options = make([]int, len(job.Tasks))
		e.executed = make([]bool, len(job.Tasks))
	}
	e.options = e.options[:len(job.Tasks)]
	e.executed = e.executed[:len(job.Tasks)]
	for i := range e.options {
		e.options[i] = 0
		e.executed[i] = false
	}
	if len(dec.Options) == len(job.Tasks) {
		copy(e.options, dec.Options)
	}
	for i := range e.options {
		if e.options[i] < 0 || e.options[i] >= len(job.Tasks[i].Options) {
			e.options[i] = 0
		}
	}
	if rt, ok := m.ctl.(*core.Runtime); ok && m.logging() {
		m.logf("%.6f pid lambda=%.6f corr=%.6f\n", m.now, rt.Lambda(), rt.Correction())
	}
	if m.logging() {
		m.logf("%.6f sched seq=%d job=%d opts=%v degraded=%v ibo=%v\n",
			m.now, in.Seq, dec.JobID, e.options, dec.Degraded, dec.IBOPredicted)
	}
	e.taskIdx = 0
	e.positive = true
	e.startedAt = m.now
	e.predictedS = dec.PredictedS
	e.modelS = dec.ModelS
	e.degraded = dec.Degraded
	e.aborted = false
	e.faults = 0
	m.exec = e
	m.startTask()
}

// startTask samples the current task's execution latency (the §8
// variable-cost extension) and initialises its progress state.
func (m *Machine) startTask() {
	e := m.exec
	opt := e.job.Tasks[e.taskIdx].Options[e.options[e.taskIdx]]
	texe := opt.Texe
	jitter := opt.TexeJitter
	if m.cfg.TexeJitterOverride > 0 {
		jitter = m.cfg.TexeJitterOverride
	}
	if jitter > 0 {
		f := 1 + jitter*m.rng.NormFloat64()
		if f < 0.1 {
			f = 0.1
		}
		if f > 3 {
			f = 3
		}
		texe *= f
	}
	e.fullTexe = texe
	e.remaining = texe
	e.ckptAt = texe
	e.started = false
	e.restarts = 0
	e.ckptFail = -1
}

// atomicEnergyBudget returns the banked energy an atomic task must see
// before it starts: its full energy cost, capped below the store's usable
// capacity so an oversized task cannot livelock the device.
func (m *Machine) atomicEnergyBudget(opt model.Option) float64 {
	need := opt.Eexe()
	if limit := 0.9 * m.store.UsableCapacity(); need > limit {
		need = limit
	}
	return need
}

// onPowerFailure applies the checkpoint policy when the store browns out
// mid-execution.
func (m *Machine) onPowerFailure() {
	e := m.exec
	if e == nil || !e.started || e.remaining <= 0 {
		return
	}
	task := e.job.Tasks[e.taskIdx]
	rolled := true
	switch {
	case task.Atomic:
		// Partial transmissions and other atomic work are lost entirely.
		e.remaining = e.fullTexe
		e.started = false
		e.restarts++
		m.res.AtomicRestarts++
	case m.cfg.Checkpoint == NoCheckpoint:
		e.remaining = e.fullTexe
		e.started = false
		e.restarts++
	case m.cfg.Checkpoint == PeriodicCheckpoint:
		// Roll back to the last periodic checkpoint. A failure that lands on
		// the same checkpoint as the previous one banked no net progress —
		// repeated, that is the same livelock as a full restart (the on-window
		// is too short to ever reach the next checkpoint), so it must feed
		// the watchdog too.
		e.remaining = e.ckptAt
		if e.ckptAt == e.fullTexe || e.ckptAt == e.ckptFail {
			e.restarts++
		}
		e.ckptFail = e.ckptAt
	default:
		// JIT checkpointing: progress preserved exactly.
		rolled = false
	}
	if rolled && m.logging() {
		m.logf("%.6f rollback job=%d task=%d left=%.6f restarts=%d\n",
			m.now, e.job.ID, e.taskIdx, e.remaining, e.restarts)
	}
	// Watchdog: a task restarting indefinitely (its energy cost exceeds
	// what the store can ever bank) would deadlock the device; abandon the
	// job after a bounded number of progress-losing restarts.
	const maxRestarts = 10
	if e.restarts > maxRestarts {
		e.aborted = true
	}
}

// runTask advances the current task by dt, handling completion and task
// semantics.
func (m *Machine) runTask(dt float64) {
	e := m.exec
	if e.aborted {
		m.abortJob()
		return
	}
	task := e.job.Tasks[e.taskIdx]
	opt := task.Options[e.options[e.taskIdx]]

	// Atomic tasks wait until the store has banked their full energy cost:
	// starting a radio packet that cannot finish within this charge would
	// waste the partial transmission (§8 atomicity contract).
	if task.Atomic && !e.started && m.store.UsableEnergy() < m.atomicEnergyBudget(opt) {
		m.store.Draw(m.cfg.Profile.MCU.IdlePower, dt)
		return
	}

	e.started = true
	frac := m.store.Draw(opt.Pexe, dt)
	e.remaining -= dt * frac

	// Periodic checkpointing: snapshot progress every CheckpointInterval
	// of execution, paying the save cost (symmetric to restore).
	if m.cfg.Checkpoint == PeriodicCheckpoint && !task.Atomic &&
		e.ckptAt-e.remaining >= m.cfg.CheckpointInterval {
		e.ckptAt = e.remaining
		m.store.Draw(m.cfg.Profile.MCU.RestorePower, m.cfg.Profile.MCU.RestoreTime)
		if m.logging() {
			m.logf("%.6f ckpt job=%d task=%d left=%.6f\n", m.now, e.job.ID, e.taskIdx, e.remaining)
		}
	}

	if e.remaining > 0 {
		return
	}
	// Transient fault injection: the fault is DETECTED at completion
	// (EnSuRe's detection model), before any credit is recorded — no
	// executed mark, no option usage, no classifier coin, no packet — so a
	// re-executed task can never double-count quality or deadline credit.
	// The draw indexes a monotone completion counter, not the rng stream,
	// so fault-free completions consume identical randomness whether or
	// not injection is configured.
	if f := m.flt; f != nil && f.left != 0 {
		idx := f.idx
		f.idx++
		if f.spec.TaskFaultAt(f.seed, idx) {
			if f.left > 0 {
				f.left--
			}
			m.res.TransientFaults++
			e.faults++
			e.remaining = e.fullTexe
			e.ckptAt = e.fullTexe
			e.started = false
			e.restarts++
			if m.logging() {
				m.logf("%.6f fault job=%d task=%d faults=%d\n", m.now, e.job.ID, e.taskIdx, e.faults)
			}
			// The watchdog bounds unlimited-fault configs the same way it
			// bounds restart livelock: abandon the job eventually.
			const maxRestarts = 10
			if e.restarts > maxRestarts {
				e.aborted = true
			}
			return
		}
	}
	// Task complete.
	e.executed[e.taskIdx] = true
	if task.Degradable() {
		if oi := e.options[e.taskIdx]; oi >= 0 && oi < len(m.res.OptionUsage) {
			m.res.OptionUsage[oi]++
		}
	}
	switch task.Kind {
	case model.Classify:
		if e.input.Interesting {
			if m.rng.Float64() < opt.FalseNegative {
				e.positive = false
				m.res.FalseNegatives++
			} else {
				m.res.TruePositives++
			}
		} else {
			if m.rng.Float64() < opt.FalsePositive {
				m.res.FalsePositives++
			} else {
				e.positive = false
				m.res.TrueNegatives++
			}
		}
		if m.logging() {
			m.logf("%.6f classify seq=%d opt=%d positive=%v\n",
				m.now, e.input.Seq, e.options[e.taskIdx], e.positive)
		}
	case model.Transmit:
		m.recordPacket(opt, e.input.Interesting)
		if m.logging() {
			m.logf("%.6f tx seq=%d hq=%v interesting=%v\n",
				m.now, e.input.Seq, opt.HighQuality, e.input.Interesting)
		}
	}

	// Advance to the next runnable task.
	for {
		e.taskIdx++
		if e.taskIdx >= len(e.job.Tasks) {
			m.completeJob()
			return
		}
		next := e.job.Tasks[e.taskIdx]
		if next.Conditional && !e.positive {
			continue // classifier said no: skip the conditional chain
		}
		m.startTask()
		return
	}
}

// recordPacket accounts one radio transmission.
func (m *Machine) recordPacket(opt model.Option, interesting bool) {
	switch {
	case opt.HighQuality && interesting:
		m.res.HighQInteresting++
	case opt.HighQuality:
		m.res.HighQUninteresting++
	case interesting:
		m.res.LowQInteresting++
	default:
		m.res.LowQUninteresting++
	}
}

// completeJob finalises the running job: spawn follow-up work, report
// feedback, update counters.
func (m *Machine) completeJob() {
	e := m.exec
	m.exec = nil
	m.res.JobsCompleted++
	if e.degraded {
		m.res.Degradations++
	}

	// The input leaves the queue — or is re-tagged in place for the
	// follow-up job if the classify chain stayed positive. Re-tagging
	// cannot overflow: the image never left its memory slot.
	spawned := e.job.SpawnJobID != model.NoSpawn && e.positive
	if m.logging() {
		m.logf("%.6f jobdone seq=%d job=%d spawned=%v restarts=%d\n",
			m.now, e.input.Seq, e.job.ID, spawned, e.restarts)
	}
	idx := m.buf.IndexOfSeq(e.input.Seq)
	if idx >= 0 {
		if spawned {
			if err := m.buf.Retag(idx, e.job.SpawnJobID, m.now); err != nil {
				m.res.IBOReinsertOther++ // unreachable; keep accounting honest
			}
		} else if _, err := m.buf.RemoveAt(idx); err != nil {
			m.res.IBOReinsertOther++
		} else {
			// The input has left the system: record its sojourn for the
			// Little's-Law validation (capture → final departure).
			m.res.SojournSum += m.now - e.input.CapturedAt
			m.res.SojournCount++
		}
	}

	m.ctl.OnJobComplete(core.Feedback{
		JobID:      e.job.ID,
		Executed:   e.executed,
		Spawned:    spawned,
		PredictedS: e.modelS,
		ObservedS:  m.now - e.startedAt,
		Now:        m.now,
		Faults:     e.faults,
	})
}

// abortJob abandons the running job after the watchdog trips: the input is
// dropped (it cannot be processed on this store) and the controller is
// informed so its trackers keep moving.
func (m *Machine) abortJob() {
	e := m.exec
	m.exec = nil
	m.res.JobAborts++
	if e.input.Interesting {
		m.res.AbortedInteresting++
	}
	if m.logging() {
		m.logf("%.6f jobabort seq=%d job=%d\n", m.now, e.input.Seq, e.job.ID)
	}
	if idx := m.buf.IndexOfSeq(e.input.Seq); idx >= 0 {
		m.buf.RemoveAt(idx)
	}
	m.ctl.OnJobComplete(core.Feedback{
		JobID:      e.job.ID,
		Executed:   e.executed,
		PredictedS: e.modelS,
		ObservedS:  m.now - e.startedAt,
		Now:        m.now,
		Faults:     e.faults,
	})
}

// finish copies store statistics into the results.
func (m *Machine) finish() {
	st := m.store.Stats()
	m.res.Brownouts = st.Brownouts
	m.res.HarvestedJoules = st.HarvestedJ
	m.res.ConsumedJoules = st.ConsumedJ
	m.res.WastedJoules = st.WastedJ
	m.res.SimSeconds = m.cfg.Duration
}
