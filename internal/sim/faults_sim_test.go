package sim

// Simulator-level tests for the hardware-realism layer (internal/faults):
// mutation tests proving the new invariant checks actually fire, the
// no-double-credit contract of fault re-execution, crawl-replay engagement
// with faults enabled, and the zero-spec no-op guarantee.

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"quetzal/internal/device"
	"quetzal/internal/engine"
	"quetzal/internal/faults"
	"quetzal/internal/invariant"
	"quetzal/internal/trace"
)

// faultsConfig is mutationConfig plus a realism spec.
func faultsConfig(t *testing.T, engine EngineKind, spec faults.Spec) Config {
	cfg := mutationConfig(t, engine)
	cfg.Faults = spec
	return cfg
}

// TestMutationMeasDoubleChargeCaught proves the meas-conservation identity
// has teeth: a clean run's final state passes a fresh checker, and the same
// state with one sample's energy booked twice fails it — by exactly the
// double-charge bug class the identity was designed to catch.
func TestMutationMeasDoubleChargeCaught(t *testing.T) {
	spec := faults.Spec{MeasEnergyNJ: 250, MeasLatencyUS: 20}
	for _, engine := range []EngineKind{FixedIncrement, EventDriven} {
		t.Run(engine.String(), func(t *testing.T) {
			s, err := New(faultsConfig(t, engine, spec))
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatalf("clean run violated invariants: %v", err)
			}
			if res.MeasSamples == 0 {
				t.Fatal("measurement cost configured but no samples charged")
			}
			perJ, _ := spec.MeasCost()
			m := s.Machine()
			fs := invariant.FinalState{
				StepState:       m.Snapshot(),
				Results:         res,
				PendingCaptures: m.PendingCaptures(),
			}

			// Control arm: the genuine final state satisfies every check.
			if err := invariant.New(invariant.Config{MeasPerSampleJ: perJ}).Finish(fs); err != nil {
				t.Fatalf("control arm: clean final state rejected: %v", err)
			}

			// Mutation: one sample charged twice.
			fs.Results.MeasJoules += perJ
			err = invariant.New(invariant.Config{MeasPerSampleJ: perJ}).Finish(fs)
			if err == nil {
				t.Fatal("injected measurement double-charge not caught")
			}
			if !strings.Contains(err.Error(), "meas-conservation") {
				t.Fatalf("double-charge reported as %q, want a meas-conservation violation", err)
			}
		})
	}
}

// TestMutationDropoutHarvestCaught injects a harvest into the store in the
// middle of a declared dropout window and requires the checker to flag it:
// dropout windows must harvest exactly 0 J, bitwise.
func TestMutationDropoutHarvestCaught(t *testing.T) {
	spec := faults.Spec{DropoutStartS: 5, DropoutDurS: 10}
	for _, engine := range []EngineKind{FixedIncrement, EventDriven} {
		t.Run(engine.String(), func(t *testing.T) {
			s, err := New(faultsConfig(t, engine, spec))
			if err != nil {
				t.Fatal(err)
			}
			injected := false
			s.Machine().StepHook = func(int) {
				// Well inside the [5,15) window, after the store has drained
				// enough that the injected energy is not clamped away.
				if now := s.Machine().Now(); !injected && now > 8 && now < 13 {
					injected = true
					s.Store().Harvest(0.05, 0.001)
				}
			}
			_, err = s.Run()
			if !injected {
				t.Fatal("mutation never fired (run too short?)")
			}
			if err == nil {
				t.Fatal("injected in-dropout harvest not caught by invariant checker")
			}
			if !strings.Contains(err.Error(), "dropout-harvest") {
				t.Fatalf("injected harvest reported as %q, want a dropout-harvest violation", err)
			}
		})
	}
}

// TestMutationFaultsControlRunsClean is the control arm for both mutation
// tests above under the full realism spec: no mutation, no violations.
func TestMutationFaultsControlRunsClean(t *testing.T) {
	spec := faults.Spec{
		TaskFaultPct: 100, TaskFaultLimit: 2,
		DropoutStartS: 5, DropoutDurS: 10,
		MeasEnergyNJ: 250, MeasLatencyUS: 20,
	}
	for _, engine := range []EngineKind{FixedIncrement, EventDriven} {
		t.Run(engine.String(), func(t *testing.T) {
			s, err := New(faultsConfig(t, engine, spec))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatalf("clean faulty run violated invariants: %v", err)
			}
		})
	}
}

// TestFaultReexecutionNoDoubleCredit pins the re-execution accounting: in an
// uncontended scenario (generous power, sparse events) a k-fault run must
// deliver exactly the work of the fault-free run — same completions, same
// packets, same per-option usage — while paying for it in time. Faults delay
// credit; they never duplicate or destroy it.
func TestFaultReexecutionNoDoubleCredit(t *testing.T) {
	base := func(engine EngineKind) Config {
		prof := device.Apollo4()
		app := prof.PersonDetectionApp()
		return Config{
			Engine:     engine,
			Profile:    prof,
			App:        app,
			Controller: noadaptController(t, app),
			Power:      trace.Constant{P: 0.2}, // uncontended: everything compute-bound
			Events:     steadyEvents(4, 3, 30, true),
			Seed:       7,
		}
	}
	const k = 2
	for _, engine := range []EngineKind{FixedIncrement, EventDriven} {
		t.Run(engine.String(), func(t *testing.T) {
			clean, err := New(base(engine))
			if err != nil {
				t.Fatal(err)
			}
			cleanRes, err := clean.Run()
			if err != nil {
				t.Fatal(err)
			}

			cfg := base(engine)
			cfg.Faults = faults.Spec{TaskFaultPct: 100, TaskFaultLimit: k}
			faulty, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			faultyRes, err := faulty.Run()
			if err != nil {
				t.Fatal(err)
			}

			if faultyRes.TransientFaults != k {
				t.Errorf("TransientFaults = %d, want the full budget %d at 100%% fault rate", faultyRes.TransientFaults, k)
			}
			if cleanRes.TransientFaults != 0 {
				t.Errorf("fault-free run recorded %d transient faults", cleanRes.TransientFaults)
			}
			if faultyRes.JobsCompleted != cleanRes.JobsCompleted {
				t.Errorf("JobsCompleted %d != fault-free %d (re-execution must not duplicate or drop completions)",
					faultyRes.JobsCompleted, cleanRes.JobsCompleted)
			}
			if got, want := faultyRes.TotalPackets(), cleanRes.TotalPackets(); got != want {
				t.Errorf("TotalPackets %d != fault-free %d", got, want)
			}
			if faultyRes.OptionUsage != cleanRes.OptionUsage {
				t.Errorf("OptionUsage %v != fault-free %v (re-executed tasks double-counted credit)",
					faultyRes.OptionUsage, cleanRes.OptionUsage)
			}
			if faultyRes.SojournSum <= cleanRes.SojournSum {
				t.Errorf("faulty SojournSum %.6f ≤ fault-free %.6f; re-execution must cost time",
					faultyRes.SojournSum, cleanRes.SojournSum)
			}
			if faultyRes.ConsumedJoules <= cleanRes.ConsumedJoules {
				t.Errorf("faulty ConsumedJoules %.6f ≤ fault-free %.6f; re-execution must cost energy",
					faultyRes.ConsumedJoules, cleanRes.ConsumedJoules)
			}
		})
	}
}

// faultyStarvedConfig is a power-starved scenario with the full realism
// spec — the regime where the crawl replay matters.
func faultyStarvedConfig(t *testing.T, checks CheckMode) Config {
	t.Helper()
	prof := device.Apollo4()
	app := prof.PersonDetectionApp()
	return Config{
		Engine:     EventDriven,
		Profile:    prof,
		App:        app,
		Controller: noadaptController(t, app),
		Power:      trace.Constant{P: 0.012}, // starved: long recharge crawls
		Events:     steadyEvents(5, 10, 5, true),
		Seed:       11,
		Checks:     checks,
		Faults: faults.Spec{
			TaskFaultPct: 100, TaskFaultLimit: 2,
			DropoutStartS: 20, DropoutDurS: 10,
			MeasEnergyNJ: 250, MeasLatencyUS: 20,
		},
	}
}

// TestLockstepFaultsBitIdenticalAndEngaged proves two things at once: with
// the realism layer active, the checked and the unchecked event-driven runs
// still commit the exact trajectory of the replay-off reference (a checked
// run carrying a no-op observer): results and event stream bit-identical,
// and the same checker statistics. And they do so while actually replaying
// crawl segments — not by silently falling back to the slow path.
func TestLockstepFaultsBitIdenticalAndEngaged(t *testing.T) {
	run := func(checks CheckMode, replayOff bool) (*Simulator, string) {
		cfg := faultyStarvedConfig(t, checks)
		var log bytes.Buffer
		bw := bufio.NewWriter(&log)
		cfg.EventLog = bw
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if replayOff {
			s.Machine().Observe(engine.FuncObserver{})
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		return s, log.String()
	}
	ref, refLog := run(ChecksAuto, true)
	if n := ref.Machine().ReplayedSteps(); n != 0 {
		t.Errorf("reference replayed %d steps; it must take the per-segment path", n)
	}
	if ref.Results().TransientFaults == 0 {
		t.Error("starved faulty scenario injected no transient faults; the test exercises nothing")
	}
	for _, arm := range []struct {
		name   string
		checks CheckMode
	}{{"checked", ChecksAuto}, {"unchecked", ChecksOff}} {
		s, log := run(arm.checks, false)
		if got, want := s.Results(), ref.Results(); got != want {
			t.Errorf("%s results diverged from the reference:\nreference: %+v\n%s: %+v", arm.name, want, arm.name, got)
		}
		if log != refLog {
			t.Errorf("%s event stream diverged from the reference under faults", arm.name)
		}
		if s.Machine().ReplayedSteps() == 0 {
			t.Errorf("%s: crawl replay never engaged under faults; the fast path silently degraded to per-segment stepping", arm.name)
		}
		if c, rc := s.Checker(), ref.Checker(); c != nil &&
			(c.Steps() != rc.Steps() || c.MaxDriftJ() != rc.MaxDriftJ() || c.PeakBufferLen() != rc.PeakBufferLen()) {
			t.Errorf("checker saw steps %d, drift %g, peak %d; reference %d, %g, %d",
				c.Steps(), c.MaxDriftJ(), c.PeakBufferLen(), rc.Steps(), rc.MaxDriftJ(), rc.PeakBufferLen())
		}
	}
}

// TestZeroSpecIsNoOp pins the zero-cost guarantee at the behavior level: an
// explicit zero Spec (even with a fault seed set) must produce the exact
// event stream of a config that never mentions faults.
func TestZeroSpecIsNoOp(t *testing.T) {
	stream := func(mutate func(*Config)) string {
		cfg := mutationConfig(t, EventDriven)
		if mutate != nil {
			mutate(&cfg)
		}
		var log bytes.Buffer
		bw := bufio.NewWriter(&log)
		cfg.EventLog = bw
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		return log.String()
	}
	plain := stream(nil)
	zeroed := stream(func(c *Config) {
		c.Faults = faults.Spec{}
		c.FaultSeed = 999 // ignored: a zero spec disables the layer entirely
	})
	if plain != zeroed {
		t.Error("explicit zero faults.Spec changed the event stream; the disabled layer is not free")
	}
}
