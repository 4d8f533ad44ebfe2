package engine

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"quetzal/internal/baseline"
	"quetzal/internal/device"
	"quetzal/internal/energy"
	"quetzal/internal/invariant"
	"quetzal/internal/metrics"
	"quetzal/internal/trace"
)

// lockstepScenario is one workload on which the crawl replay must reproduce
// the replay-off reference bit for bit: same event-log stream, same
// results, field for field.
type lockstepScenario struct {
	name  string
	power trace.PowerTrace
	store func(*energy.StoreConfig)
	// replay: +1 the crawl replay must engage, -1 it must stay off, 0 either
	// way (the bit-identity check is what matters on every scenario).
	replay int
}

func lockstepScenarios() []lockstepScenario {
	solar := trace.GenerateSolar(trace.DefaultSolarConfig(500, 7))
	return []lockstepScenario{
		{name: "bench-square", replay: 1,
			power: trace.SquareWave{High: 0.05, Low: 0.004, Period: 60, Duty: 0.5}},
		{name: "constant-starved", replay: 1,
			power: trace.Constant{P: 0.003}},
		{name: "constant-rich", replay: -1,
			power: trace.Constant{P: 0.5}},
		// A solar run rarely pins the store at the floor with captures
		// pending (starved phases brown the device out instead, where
		// segments are long); replay engagement is workload-dependent here.
		{name: "solar-sampled", power: solar},
		{name: "scaled-square", replay: 1,
			power: trace.Scaled{Base: trace.SquareWave{High: 0.06, Low: 0.002, Period: 45, Duty: 0.4}, Factor: 0.7}},
		{name: "leaky-store", replay: -1,
			power: trace.SquareWave{High: 0.05, Low: 0.004, Period: 60, Duty: 0.5},
			store: func(sc *energy.StoreConfig) { sc.LeakagePower = 0.0005 }},
	}
}

// lockstepConfig builds the shared test workload (the bench scenario's 20
// events) over the given power trace.
func lockstepConfig(t testing.TB, sc lockstepScenario) Config {
	t.Helper()
	prof := device.Apollo4()
	events := &trace.EventTrace{}
	at := 10.0
	for i := 0; i < 20; i++ {
		events.Events = append(events.Events, trace.Event{Start: at, Duration: 10, Interesting: true})
		at += 20
	}
	app := prof.PersonDetectionApp()
	ctl, err := baseline.NoAdapt(app)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Profile: prof, App: app, Controller: ctl,
		Power: sc.power, Events: events,
		Seed: 42,
	}
	if sc.store != nil {
		store := energy.DefaultConfig()
		sc.store(&store)
		cfg.Store = store
	}
	return cfg
}

// replayOff is the replay-off reference: a no-op observer. The stepper's
// replay gate treats any registered observer as "observe every step", so a
// machine carrying it takes the per-segment path on every step.
var replayOff = FuncObserver{}

// runFingerprint executes one machine under the event-driven stepper with
// the event log hashed and the given observers registered, returning the
// stream digest and the results.
func runFingerprint(t testing.TB, cfg Config, obs ...Observer) (string, metrics.Results, *Machine) {
	t.Helper()
	h := sha256.New()
	w := bufio.NewWriter(h)
	cfg.EventLog = w
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(obs...)
	res, err := m.Run(context.Background(), LockstepStepper{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)), res, m
}

// TestLockstepBitIdentical pins the crawl replay's core contract: for every
// scenario the event-log stream and every results field are bit-identical
// to the replay-off reference — the replay may only commit steps whose
// outcomes are provably the ones the per-segment path would produce.
func TestLockstepBitIdentical(t *testing.T) {
	for _, sc := range lockstepScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			refHash, refRes, _ := runFingerprint(t, lockstepConfig(t, sc), replayOff)
			lockHash, lockRes, lm := runFingerprint(t, lockstepConfig(t, sc))
			if refHash != lockHash {
				t.Errorf("event-log stream diverged: replay off %s vs replay on %s", refHash, lockHash)
			}
			// Empty tolerance: every field must match exactly.
			if diffs := metrics.Diff(refRes, lockRes, metrics.Tolerance{}); len(diffs) > 0 {
				t.Errorf("results diverged:\n%v", diffs)
			}
			if sc.replay > 0 && lm.ReplayedSteps() == 0 {
				t.Errorf("crawl replay never engaged (want fast path active)")
			}
			if sc.replay < 0 && lm.ReplayedSteps() != 0 {
				t.Errorf("crawl replay engaged (%d steps) on a scenario that must take the normal path",
					lm.ReplayedSteps())
			}
		})
	}
}

// TestLockstepReplayDominates asserts the fast path carries the starved
// bench workload — the speedup mechanism, not just its correctness.
func TestLockstepReplayDominates(t *testing.T) {
	sc := lockstepScenarios()[0] // bench-square
	m, err := New(lockstepConfig(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background(), LockstepStepper{}); err != nil {
		t.Fatal(err)
	}
	if m.ReplayedSteps() < 100000 {
		t.Fatalf("replayed %d steps, want ≥100000 on the crawl-heavy bench workload", m.ReplayedSteps())
	}
}

// TestLockstepObserverDisablesReplay: observers must see every step, so
// registering one forces the per-segment path, and results stay identical
// to the unobserved run, which replays.
func TestLockstepObserverDisablesReplay(t *testing.T) {
	sc := lockstepScenarios()[0]
	m, err := New(lockstepConfig(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	m.Observe(FuncObserver{Step: func(*Machine, float64) { steps++ }})
	res, err := m.Run(context.Background(), LockstepStepper{})
	if err != nil {
		t.Fatal(err)
	}
	if m.ReplayedSteps() != 0 {
		t.Fatalf("replay committed %d steps with an observer registered", m.ReplayedSteps())
	}
	if steps == 0 {
		t.Fatal("observer saw no steps")
	}
	_, replayRes, rm := runFingerprint(t, lockstepConfig(t, sc))
	if rm.ReplayedSteps() == 0 {
		t.Fatal("unobserved run never replayed; the comparison exercises nothing")
	}
	if diffs := metrics.Diff(replayRes, res, metrics.Tolerance{}); len(diffs) > 0 {
		t.Fatalf("observed run diverged from the replaying run:\n%v", diffs)
	}
}

// TestLockstepCancellation: the main loop must notice a canceled context
// before committing any step.
func TestLockstepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := New(lockstepConfig(t, lockstepScenarios()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(ctx, LockstepStepper{}); err == nil {
		t.Fatal("want cancellation error, got nil")
	}
}

// BenchmarkEngineLockstep is the event-driven stepper with the crawl replay
// on, on the shared bench workload (comparable to BenchmarkEngineEvent, its
// replay-off reference, row for row).
func BenchmarkEngineLockstep(b *testing.B) { benchEngineRun(b, LockstepStepper{}) }

// replayWindows runs m to its end the way LockstepStepper does and returns
// the [start, end) spans the crawl replay committed.
func replayWindows(m *Machine) [][2]float64 {
	end := m.cfg.Duration
	var spans [][2]float64
	for m.now < end {
		start := m.now
		if m.replayCrawl(end) > 0 {
			spans = append(spans, [2]float64{start, m.now})
			continue
		}
		dt := segment(m, end)
		m.Step(dt)
		m.now += dt
		m.EndStep(dt)
	}
	return spans
}

// TestReplayedStepsAreChecked is the mutation test of the replay under
// checks: the harvester keeps delivering through a dropout window the
// checker was told about, and the window lies inside one replayed span, so
// only a check of the replayed steps can see it. No StepHook injects it
// (a hook turns the replay off): the mutant is the trace itself, which
// ignores its dropout. The checked run must replay, fail with
// dropout-harvest at a time inside the span, and report exactly what the
// replay-off reference reports.
func TestReplayedStepsAreChecked(t *testing.T) {
	sc := lockstepScenarios()[0] // bench-square: crawls at the 4 mW low level
	probe, err := New(lockstepConfig(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	var span [2]float64
	for _, w := range replayWindows(probe) {
		if w[1]-w[0] > span[1]-span[0] {
			span = w
		}
	}
	if span[1]-span[0] < 1000*minSegment {
		t.Fatalf("longest replayed span %v; the scenario must crawl for thousands of steps", span)
	}
	third := (span[1] - span[0]) / 3
	window := [2]float64{span[0] + third, span[1] - third}

	run := func(obs ...Observer) (*Machine, error) {
		m, err := New(lockstepConfig(t, sc))
		if err != nil {
			t.Fatal(err)
		}
		chk := invariant.New(invariant.Config{DropoutWindows: [][2]float64{window}})
		m.Observe(append([]Observer{InvariantObserver{C: chk}}, obs...)...)
		_, err = m.Run(context.Background(), LockstepStepper{})
		return m, err
	}
	m, err := run()
	if m.ReplayedSteps() == 0 {
		t.Fatal("checked run never replayed")
	}
	var v invariant.Violation
	if !errors.As(err, &v) || v.Name != "dropout-harvest" {
		t.Fatalf("harvest inside the declared dropout not caught: %v", err)
	}
	if v.Time <= window[0] || v.Time > window[1] {
		t.Errorf("violation at t=%g, outside the dropout window %v", v.Time, window)
	}
	_, refErr := run(replayOff)
	if refErr == nil || refErr.Error() != err.Error() {
		t.Errorf("replayed run reported\n%v\nreplay-off reference reported\n%v", err, refErr)
	}
}

// TestCheckedHotPathZeroAlloc: a checked lockstep run — the crawl replay
// included — allocates nothing per iteration once warm.
func TestCheckedHotPathZeroAlloc(t *testing.T) {
	cfg := testConfig(t, nil, nil)
	// One long event keeps arrivals, decisions and transmissions flowing,
	// and the low square-wave level makes the store crawl at its floor.
	cfg.Events = &trace.EventTrace{Events: []trace.Event{{Start: 0, Duration: 7200, Interesting: true}}}
	cfg.Power = trace.SquareWave{High: 0.05, Low: 0.004, Period: 60, Duty: 0.5}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(InvariantObserver{C: invariant.New(invariant.Config{})})
	end := m.cfg.Duration
	iterate := func() {
		if m.replayCrawl(end) > 0 {
			return
		}
		dt := segment(m, end)
		m.Step(dt)
		m.now += dt
		m.EndStep(dt)
	}
	for i := 0; i < 5000; i++ { // warm up: first captures, jobs, brownouts
		iterate()
	}
	if allocs := testing.AllocsPerRun(5000, iterate); allocs != 0 {
		t.Errorf("checked lockstep iteration allocates %.4f, want 0", allocs)
	}
	if m.now >= end {
		t.Fatal("run reached its end; the guard measured idle iterations")
	}
	if m.ReplayedSteps() == 0 {
		t.Error("the crawl replay never engaged; the guard does not cover it")
	}
	if err := m.chk.Err(); err != nil {
		t.Fatalf("checked run violated invariants: %v", err)
	}
}
