package engine

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"quetzal/internal/baseline"
	"quetzal/internal/core"
	"quetzal/internal/device"
	"quetzal/internal/invariant"
	"quetzal/internal/model"
	"quetzal/internal/trace"
)

// steadyEvents builds a trace of n back-to-back interesting events with
// gaps, deterministic and easy to reason about.
func steadyEvents(n int, dur, gap float64, interesting bool) *trace.EventTrace {
	tr := &trace.EventTrace{}
	t := gap
	for i := 0; i < n; i++ {
		tr.Events = append(tr.Events, trace.Event{Start: t, Duration: dur, Interesting: interesting})
		t += dur + gap
	}
	return tr
}

func noadaptController(t *testing.T, app *model.App) core.Controller {
	t.Helper()
	c, err := baseline.NoAdapt(app)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func quetzalController(t *testing.T, app *model.App) core.Controller {
	t.Helper()
	r, err := core.New(core.Config{App: app, CapturePeriod: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// testConfig is a small brownout-heavy scenario both steppers handle.
func testConfig(t *testing.T, app *model.App, ctl core.Controller) Config {
	t.Helper()
	prof := device.Apollo4()
	if app == nil {
		app = prof.PersonDetectionApp()
	}
	if ctl == nil {
		ctl = noadaptController(t, app)
	}
	return Config{
		Profile:    prof,
		App:        app,
		Controller: ctl,
		Power:      trace.SquareWave{High: 0.05, Low: 0.004, Period: 60, Duty: 0.5},
		Events:     steadyEvents(5, 10, 10, true),
		Seed:       42,
	}
}

// stepperKinds names the two time-advance loops; subtests carry the kind
// names and run StepperFor(kind).
var stepperKinds = []Kind{FixedIncrement, EventDriven}

func mustRun(t *testing.T, cfg Config, s Stepper, obs ...Observer) (mRes *Machine, _ error) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(obs...)
	_, err = m.Run(context.Background(), s)
	return m, err
}

func TestNewValidation(t *testing.T) {
	prof := device.Apollo4()
	app := prof.PersonDetectionApp()
	ctl := noadaptController(t, app)
	events := steadyEvents(1, 5, 5, true)
	power := trace.Constant{P: 0.02}

	cases := []Config{
		{},                              // no controller
		{Controller: ctl},               // no power
		{Controller: ctl, Power: power}, // no events
		{Controller: ctl, Power: power, Events: events, Profile: prof, CapturePeriod: -1},
		{Controller: ctl, Power: power, Events: events, Profile: prof, StepDt: -1},
		{Controller: ctl, Power: power, Events: events, Profile: prof, BufferCapacity: -1},
		{Controller: ctl, Power: power, Events: events, Profile: prof, CheckpointInterval: -1},
		{Controller: ctl, Power: power, Events: events, Profile: prof, TexeJitterOverride: 2},
		{Controller: ctl, Power: power, Events: events, Profile: prof, Duration: -5},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted invalid config", i)
		}
	}
	if _, err := New(Config{Controller: ctl, Power: power, Events: events, Profile: prof, App: app}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if FixedIncrement.String() != "fixed-increment" || EventDriven.String() != "event-driven" {
		t.Errorf("kind names: %q, %q", FixedIncrement, EventDriven)
	}
	if got := Kind(7).String(); got != "EngineKind(7)" {
		t.Errorf("unknown kind = %q", got)
	}
}

// TestStepperFor pins the kind → stepper map: one event-driven stepper for
// both event kinds, and the fixed-increment reference for everything else.
func TestStepperFor(t *testing.T) {
	for k, want := range map[Kind]Stepper{
		FixedIncrement: FixedStepper{},
		EventDriven:    LockstepStepper{},
		Lockstep:       LockstepStepper{},
		Kind(9):        FixedStepper{}, // unknown kinds fall back to fixed
	} {
		if got := StepperFor(k); got != want {
			t.Errorf("StepperFor(%v) = %T, want %T", k, got, want)
		}
	}
}

func TestCheckpointPolicyString(t *testing.T) {
	for want, p := range map[string]CheckpointPolicy{
		"jit": JITCheckpoint, "none": NoCheckpoint, "periodic": PeriodicCheckpoint,
	} {
		if p.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(p), p, want)
		}
	}
	if got := CheckpointPolicy(9).String(); got != "CheckpointPolicy(9)" {
		t.Errorf("unknown policy = %q", got)
	}
}

// TestStoreDepletionSemantics pins the meaning of the event stepper's
// store-depletion horizon (the old signature carried an unused bool that
// suggested the caller's subsystem mattered — it never did and now cannot):
// the time to brown-out depends only on the draw power against the current
// net harvest, regardless of which subsystem draws.
func TestStoreDepletionSemantics(t *testing.T) {
	cfg := testConfig(t, nil, nil)
	cfg.Power = trace.Constant{P: 0.2}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// DefaultConfig: 80% efficiency, no leakage → net harvest 160 mW.
	if got := m.harvestRate(); math.Abs(got-0.16) > 1e-12 {
		t.Fatalf("harvestRate = %g, want 0.16", got)
	}

	// Charging on net: no depletion horizon, the cap applies.
	if got := m.storeDepletion(0.06); got != maxSegment {
		t.Errorf("net-charging depletion horizon = %g, want maxSegment %g", got, maxSegment)
	}

	// Draining: the horizon is exactly usable energy over net drain, for
	// any draw power — capture pipeline, restore, execution, and idle draws
	// all share this one rule.
	usable := m.Store().UsableEnergy()
	if usable <= 0 {
		t.Fatal("fresh store has no usable energy")
	}
	for _, draw := range []float64{0.26, 0.66, 1.16} {
		net := 0.16 - draw
		want := usable / -net
		if got := m.storeDepletion(draw); math.Abs(got-want) > 1e-9*want {
			t.Errorf("storeDepletion(%g) = %g, want usable/-net = %g", draw, got, want)
		}
	}

	// Fully drained while draining on net: minimal progress, never zero.
	m.Store().SetFraction(0)
	if got := m.storeDepletion(0.66); got != minSegment {
		t.Errorf("drained depletion horizon = %g, want minSegment %g", got, minSegment)
	}
}

func TestStoreChargeAndRestart(t *testing.T) {
	cfg := testConfig(t, nil, nil)
	cfg.Power = trace.Constant{P: 0.2} // net 160 mW
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.storeCharge(0.016); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("storeCharge(16 mJ) = %g s, want 0.1", got)
	}
	if got := m.storeCharge(0); got != minSegment {
		t.Errorf("storeCharge(0) = %g, want minSegment", got)
	}
	m.Store().SetFraction(0)
	// Restart horizon is uncapped here; segment() applies the maxSegment
	// clamp. From empty at 160 mW the VOn deficit takes a finite charge.
	if got := m.storeRestart(); got <= 0 || got > 10 {
		t.Errorf("storeRestart from empty = %g, want a finite positive horizon", got)
	}
	// Not harvesting: restart never comes within this segment.
	cfg.Power = trace.Constant{P: 0}
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2.Store().SetFraction(0)
	if got := m2.storeRestart(); got != maxSegment {
		t.Errorf("storeRestart without harvest = %g, want maxSegment", got)
	}
}

// TestHotPathZeroAlloc is the observer pipeline's zero-cost claim: with no
// observers (and even with the invariant checker, which the machine feeds
// an observation filled in place), steady-state stepping allocates nothing.
func TestHotPathZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		obs  []Observer
	}{
		{"bare", nil},
		{"invariant", []Observer{InvariantObserver{C: invariant.New(invariant.Config{})}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, nil, nil)
			cfg.Events = &trace.EventTrace{} // no events: no arrivals, no controller work
			cfg.Power = trace.Constant{P: 0.02}
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.Observe(tc.obs...)
			const dt = 0.001
			step := 0
			run := func() {
				m.now = float64(step) * dt
				m.Step(dt)
				m.now = float64(step+1) * dt
				m.EndStep(dt)
				step++
			}
			for i := 0; i < 2000; i++ { // warm up past the first capture ticks
				run()
			}
			if allocs := testing.AllocsPerRun(2000, run); allocs != 0 {
				t.Errorf("hot path allocates %.1f per step, want 0", allocs)
			}
		})
	}
}

func TestObserverPipeline(t *testing.T) {
	for _, k := range stepperKinds {
		t.Run(k.String(), func(t *testing.T) {
			s := StepperFor(k)
			var steps, finishes int
			var lastNow float64
			m, err := mustRun(t, testConfig(t, nil, nil), s, FuncObserver{
				Step: func(m *Machine, dt float64) {
					steps++
					if m.Now() < lastNow {
						t.Fatalf("observer clock went backwards: %g after %g", m.Now(), lastNow)
					}
					lastNow = m.Now()
				},
				Finish: func(m *Machine) error { finishes++; return nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			if steps == 0 || finishes != 1 {
				t.Errorf("observer saw %d steps, %d finishes", steps, finishes)
			}
			if math.Abs(lastNow-m.Duration()) > 1e-9 {
				t.Errorf("last observed step at t=%g, want duration %g", lastNow, m.Duration())
			}
		})
	}
}

func TestObserverFinishErrorFailsRun(t *testing.T) {
	boom := errors.New("boom")
	_, err := mustRun(t, testConfig(t, nil, nil), FixedStepper{},
		FuncObserver{Finish: func(*Machine) error { return boom }})
	if !errors.Is(err, boom) {
		t.Fatalf("OnFinish error not propagated: %v", err)
	}
}

// TestTimelineGrid: under the event stepper, the timeline observer's
// Horizon forces segment boundaries onto the row grid, so every row is
// stamped exactly on a multiple of the interval.
func TestTimelineGrid(t *testing.T) {
	for _, k := range stepperKinds {
		t.Run(k.String(), func(t *testing.T) {
			s := StepperFor(k)
			var buf bytes.Buffer
			cfg := testConfig(t, nil, nil)
			_, err := mustRun(t, cfg, s, NewTimelineWriter(&buf, 0.5))
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			if lines[0] != "t_s,power_mw,store_mj,occupancy,state" {
				t.Fatalf("header = %q", lines[0])
			}
			if len(lines) < 10 {
				t.Fatalf("only %d timeline rows", len(lines)-1)
			}
			offGrid := 0
			for _, ln := range lines[1:] {
				ts, err := strconv.ParseFloat(strings.SplitN(ln, ",", 2)[0], 64)
				if err != nil {
					t.Fatalf("bad row %q: %v", ln, err)
				}
				if r := math.Mod(ts, 0.5); math.Min(r, 0.5-r) > 1e-3 {
					offGrid++
				}
			}
			// The fixed stepper's first row lands one step after t=0; allow
			// stray boundary rows but require the grid to dominate.
			if offGrid > 1 {
				t.Errorf("%d of %d rows off the 0.5 s grid", offGrid, len(lines)-1)
			}
		})
	}
}

// TestInvariantObserverCatchesCorruption is the engine-level mutation test:
// teleporting the store's charge without accounting must fail the run.
func TestInvariantObserverCatchesCorruption(t *testing.T) {
	for _, k := range stepperKinds {
		t.Run(k.String(), func(t *testing.T) {
			s := StepperFor(k)
			m, err := New(testConfig(t, nil, nil))
			if err != nil {
				t.Fatal(err)
			}
			m.Observe(InvariantObserver{C: invariant.New(invariant.Config{})})
			// Two opposite jumps so at least one moves the stored energy no
			// matter where the trajectory sits when the hook fires.
			m.StepHook = func(step int) {
				switch step {
				case 100:
					m.Store().SetFraction(1)
				case 400:
					m.Store().SetFraction(0)
				}
			}
			if _, err := m.Run(context.Background(), s); err == nil ||
				!strings.Contains(err.Error(), "energy-conservation") {
				t.Fatalf("corruption not caught, err = %v", err)
			}
		})
	}
}

// TestSteppersProduceConsistentRuns drives a full brownout-heavy scenario
// through both steppers, with the quetzal runtime for controller-path
// coverage, under the invariant checker. Exact agreement is the
// differential oracle's job (internal/simgen); here both runs must be
// clean and within coarse agreement.
func TestSteppersProduceConsistentRuns(t *testing.T) {
	results := map[Kind]float64{}
	for _, k := range stepperKinds {
		prof := device.Apollo4()
		app := prof.PersonDetectionApp()
		cfg := testConfig(t, app, quetzalController(t, app))
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Observe(InvariantObserver{C: invariant.New(invariant.Config{})})
		res, err := m.Run(context.Background(), StepperFor(k))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if res.Captures == 0 || res.Arrivals == 0 || res.JobsCompleted == 0 {
			t.Fatalf("%v: degenerate run: %+v", k, res)
		}
		if res.Brownouts == 0 {
			t.Errorf("%v: scenario intended to brown out never did", k)
		}
		results[k] = float64(res.Arrivals)
	}
	f, e := results[FixedIncrement], results[EventDriven]
	if math.Abs(f-e) > 0.25*math.Max(f, e) {
		t.Errorf("arrivals diverge between steppers: fixed %g vs event %g", f, e)
	}
}

// TestCheckpointPolicies exercises every progress model under intermittent
// power; all must produce clean, invariant-checked runs.
func TestCheckpointPolicies(t *testing.T) {
	for _, p := range []CheckpointPolicy{JITCheckpoint, NoCheckpoint, PeriodicCheckpoint} {
		for _, k := range stepperKinds {
			t.Run(p.String()+"/"+k.String(), func(t *testing.T) {
				cfg := testConfig(t, nil, nil)
				cfg.Checkpoint = p
				cfg.CheckpointInterval = 0.2
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				m.Observe(InvariantObserver{C: invariant.New(invariant.Config{})})
				res, err := m.Run(context.Background(), StepperFor(k))
				if err != nil {
					t.Fatal(err)
				}
				if res.Brownouts == 0 {
					t.Error("scenario intended to brown out never did")
				}
			})
		}
	}
}

// TestJitterOverride covers the §8 variable-cost path.
func TestJitterOverride(t *testing.T) {
	cfg := testConfig(t, nil, nil)
	cfg.TexeJitterOverride = 0.3
	if _, err := mustRun(t, cfg, LockstepStepper{},
		InvariantObserver{C: invariant.New(invariant.Config{})}); err != nil {
		t.Fatal(err)
	}
}

func TestCancellation(t *testing.T) {
	for _, k := range stepperKinds {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		m, err := New(testConfig(t, nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(ctx, StepperFor(k)); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: canceled run returned %v", k, err)
		}
	}
}

func TestAccessors(t *testing.T) {
	cfg := testConfig(t, nil, nil)
	cfg.Power = trace.Constant{P: 0.02}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Now() != 0 || m.PendingCaptures() != 0 {
		t.Errorf("fresh machine: now %g, pending %d", m.Now(), m.PendingCaptures())
	}
	if got := m.InputPower(); got != 0.02 {
		t.Errorf("InputPower = %g", got)
	}
	if m.Phase() != "idle" {
		t.Errorf("fresh machine phase = %q, want idle", m.Phase())
	}
	if m.Buffer() == nil || m.Store() == nil || m.Duration() <= 0 {
		t.Error("nil subsystem accessors")
	}
	st := m.Snapshot()
	if st.BufferCap != m.Buffer().Capacity() || st.Store.Capacity != m.Store().Capacity() {
		t.Errorf("snapshot disagrees with accessors: %+v", st)
	}
}

// TestNilStepperDefaultsToFixed pins Run's nil-stepper fallback.
func TestNilStepperDefaultsToFixed(t *testing.T) {
	m, err := New(testConfig(t, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestCaptureRing(t *testing.T) {
	var r captureRing
	for i := 0; i < maxPendingCaptures; i++ {
		if r.Full() {
			t.Fatalf("ring full after %d pushes", i)
		}
		r.Push(pendingCapture{capturedAt: float64(i)})
	}
	if !r.Full() || r.Len() != maxPendingCaptures {
		t.Fatalf("ring not full after %d pushes (len %d)", maxPendingCaptures, r.Len())
	}
	if got := r.PopFront().capturedAt; got != 0 {
		t.Errorf("FIFO violated: popped %g first", got)
	}
	r.Push(pendingCapture{capturedAt: 9}) // wraps around the array
	want := []float64{1, 2, 3, 9}
	for i, w := range want {
		if got := r.PopFront().capturedAt; got != w {
			t.Errorf("pop %d = %g, want %g", i, got, w)
		}
	}
	if r.Len() != 0 {
		t.Errorf("ring not empty after draining, len %d", r.Len())
	}
}
