package sim

import (
	"bytes"
	"testing"
	"time"

	"quetzal/internal/core"
	"quetzal/internal/device"
	"quetzal/internal/engine"
	"quetzal/internal/metrics"
	"quetzal/internal/trace"
)

// runBothEngines executes the same configuration under both engines.
func runBothEngines(t *testing.T, mk func() Config) (fixed, event metrics.Results) {
	t.Helper()
	cfgF := mk()
	cfgF.Engine = FixedIncrement
	sf, err := New(cfgF)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err = sf.Run()
	if err != nil {
		t.Fatalf("fixed engine: %v", err)
	}
	cfgE := mk()
	cfgE.Engine = EventDriven
	se, err := New(cfgE)
	if err != nil {
		t.Fatal(err)
	}
	event, err = se.Run()
	if err != nil {
		t.Fatalf("event engine: %v", err)
	}
	return fixed, event
}

// within asserts |a−b| ≤ tol·max(b, floor).
func within(t *testing.T, name string, a, b, tol, floor float64) {
	t.Helper()
	scale := b
	if scale < floor {
		scale = floor
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if diff > tol*scale {
		t.Errorf("%s: event-driven %.4g vs fixed %.4g (> %.0f%% apart)", name, a, b, tol*100)
	}
}

func TestEngineKindString(t *testing.T) {
	if FixedIncrement.String() != "fixed-increment" || EventDriven.String() != "event-driven" {
		t.Error("engine names wrong")
	}
	if EngineKind(7).String() != "EngineKind(7)" {
		t.Error("unknown engine name wrong")
	}
}

// The event-driven engine must reproduce the fixed-increment engine's
// metrics within tight statistical tolerance on the standard workload —
// for both Quetzal and the NoAdapt baseline, at easy and hard power levels.
func TestEventDrivenMatchesFixedIncrement(t *testing.T) {
	prof := device.Apollo4()
	events := steadyEvents(10, 30, 15, true)
	scenarios := []struct {
		name    string
		power   trace.PowerTrace
		quetzal bool
	}{
		{"noadapt-high-power", trace.Constant{P: 0.08}, false},
		{"noadapt-low-power", trace.Constant{P: 0.004}, false},
		{"quetzal-square-wave", trace.SquareWave{High: 0.06, Low: 0.004, Period: 60, Duty: 0.5}, true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			mk := func() Config {
				app := prof.PersonDetectionApp()
				var ctl core.Controller
				if sc.quetzal {
					ctl = quetzalController(t, app)
				} else {
					ctl = noadaptController(t, app)
				}
				return Config{
					Profile: prof, App: app, Controller: ctl,
					Power: sc.power, Events: events, Seed: 17,
				}
			}
			fixed, event := runBothEngines(t, mk)
			if fixed.Arrivals == 0 {
				t.Fatal("no arrivals in reference run")
			}
			within(t, "arrivals", float64(event.Arrivals), float64(fixed.Arrivals), 0.02, 1)
			within(t, "jobs", float64(event.JobsCompleted), float64(fixed.JobsCompleted), 0.10, 20)
			within(t, "discarded-frac", event.DiscardedFraction(), fixed.DiscardedFraction(), 0.25, 0.05)
			within(t, "reported", float64(event.ReportedInteresting()), float64(fixed.ReportedInteresting()), 0.15, 20)
			within(t, "harvested", event.HarvestedJoules, fixed.HarvestedJoules, 0.05, 0.1)
		})
	}
}

// TestEventDrivenReplaysCrawl: a sim.EventDriven run of a starved scenario
// replays its brown-out crawl with checks on and off, and its results, its
// event stream and (checked) its invariant checker's statistics are
// identical to the replay-off reference, a checked run that carries a no-op
// observer.
func TestEventDrivenReplaysCrawl(t *testing.T) {
	run := func(checks CheckMode, replayOff bool) (*Simulator, string) {
		prof := device.Apollo4()
		app := prof.PersonDetectionApp()
		var log bytes.Buffer
		s, err := New(Config{
			Engine:     EventDriven,
			Profile:    prof,
			App:        app,
			Controller: noadaptController(t, app),
			Power:      trace.Constant{P: 0.003}, // starved: the store crawls at its floor
			Events:     steadyEvents(20, 10, 10, true),
			Seed:       42,
			Checks:     checks,
			EventLog:   &log,
		})
		if err != nil {
			t.Fatal(err)
		}
		if replayOff {
			s.Machine().Observe(engine.FuncObserver{})
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s, log.String()
	}
	ref, refLog := run(ChecksAuto, true)
	if n := ref.Machine().ReplayedSteps(); n != 0 {
		t.Fatalf("reference replayed %d steps; its observer must keep the replay off", n)
	}
	for _, arm := range []struct {
		name   string
		checks CheckMode
	}{{"checked", ChecksAuto}, {"unchecked", ChecksOff}} {
		s, log := run(arm.checks, false)
		if n := s.Machine().ReplayedSteps(); n == 0 {
			t.Errorf("%s event-driven run never replayed the crawl", arm.name)
		}
		if diffs := metrics.Diff(ref.Results(), s.Results(), metrics.Tolerance{}); len(diffs) > 0 {
			t.Errorf("%s results diverged from the replay-off reference:\n%v", arm.name, diffs)
		}
		if log != refLog {
			t.Errorf("%s event stream diverged from the replay-off reference", arm.name)
		}
		if c := s.Checker(); c != nil {
			rc := ref.Checker()
			if c.Steps() != rc.Steps() || c.MaxDriftJ() != rc.MaxDriftJ() || c.PeakBufferLen() != rc.PeakBufferLen() {
				t.Errorf("checker saw steps %d, drift %g, peak %d; reference %d, %g, %d",
					c.Steps(), c.MaxDriftJ(), c.PeakBufferLen(), rc.Steps(), rc.MaxDriftJ(), rc.PeakBufferLen())
			}
		}
	}
}

// The event-driven engine must be dramatically faster.
func TestEventDrivenSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	prof := device.Apollo4()
	events := steadyEvents(20, 20, 20, true)
	mk := func(engine EngineKind) Config {
		app := prof.PersonDetectionApp()
		return Config{
			Profile: prof, App: app,
			Controller: noadaptController(t, app),
			Power:      trace.Constant{P: 0.03},
			Events:     events, Seed: 18,
			Engine: engine,
		}
	}
	timeRun := func(cfg Config) time.Duration {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	tFixed := timeRun(mk(FixedIncrement))
	tEvent := timeRun(mk(EventDriven))
	if tEvent*5 > tFixed {
		t.Errorf("event-driven %v not ≥5x faster than fixed %v", tEvent, tFixed)
	}
	t.Logf("fixed %v, event-driven %v (%.0fx)", tFixed, tEvent, float64(tFixed)/float64(tEvent))
}

// Event-driven runs must terminate and stay consistent across the stress
// corners: checkpoint policies, atomic tasks, jitter, zero power.
func TestEventDrivenCorners(t *testing.T) {
	prof := device.Apollo4()
	app := prof.PersonDetectionApp()
	cases := []func(*Config){
		func(c *Config) { c.Checkpoint = NoCheckpoint },
		func(c *Config) { c.Checkpoint = PeriodicCheckpoint; c.CheckpointInterval = 0.25 },
		func(c *Config) { c.TexeJitterOverride = 0.4 },
		func(c *Config) { c.Power = trace.Constant{P: 0} },
	}
	for i, mutate := range cases {
		app := prof.PersonDetectionApp()
		cfg := Config{
			Profile: prof, App: app,
			Controller: noadaptController(t, app),
			Power:      trace.Constant{P: 0.01},
			Events:     steadyEvents(5, 10, 10, true),
			Seed:       int64(19 + i),
			Engine:     EventDriven,
		}
		mutate(&cfg)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := res.Check(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
	_ = app
}
