package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"quetzal/internal/device"
	"quetzal/internal/energy"
	"quetzal/internal/metrics"
	"quetzal/internal/model"
	"quetzal/internal/trace"
)

// atomicApp builds a single-job app whose transmit task is atomic with an
// energy cost sized against the given store.
func atomicApp(texe, pexe float64) *model.App {
	tx := &model.Task{Name: "beacon", Kind: model.Transmit, Atomic: true,
		Options: []model.Option{{Name: "pkt", Texe: texe, Pexe: pexe, HighQuality: true}}}
	return &model.App{
		Name:        "atomic-beacon",
		Jobs:        []*model.Job{{ID: 0, Name: "send", Tasks: []*model.Task{tx}, SpawnJobID: model.NoSpawn}},
		EntryJobID:  0,
		CaptureTexe: 0.01, CapturePexe: 0.001,
	}
}

// An atomic task that browns out mid-transmission must restart from
// scratch, and the restarts must be counted.
func TestAtomicTaskRestartsOnBrownout(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine EngineKind) {
		prof := device.Apollo4()
		// Tiny store: usable ≈ ½·1.5mF·(3²−1.8²) = 4.3 mJ. The packet needs
		// 0.1 s × 50 mW = 5 mJ > 0.9×usable, so the reservation caps out and
		// the task starts, browns out, and restarts under weak harvest.
		store := energy.DefaultConfig()
		store.Capacitance = 0.0015
		app := atomicApp(0.1, 0.05)
		s, err := New(Config{
			Profile: prof, App: app,
			Engine:     engine,
			Controller: noadaptController(t, app),
			Power:      trace.Constant{P: 0.003},
			Events:     steadyEvents(2, 3, 30, true),
			Store:      store,
			DrainTime:  200,
			Seed:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.AtomicRestarts == 0 {
			t.Error("no atomic restarts despite a store smaller than the packet energy")
		}
	})
}

// With enough banked energy the atomic task must wait for the reservation
// and then complete without restarts.
func TestAtomicTaskReservesEnergy(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine EngineKind) {
		prof := device.Apollo4()
		app := atomicApp(0.2, 0.12) // 24 mJ per packet, well within the 95 mJ store
		s, err := New(Config{
			Profile: prof, App: app,
			Engine:     engine,
			Controller: noadaptController(t, app),
			Power:      trace.Constant{P: 0.010},
			Events:     steadyEvents(3, 2, 20, true),
			DrainTime:  120,
			Seed:       2,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalPackets() == 0 {
			t.Fatal("atomic transmit never completed")
		}
		if res.AtomicRestarts != 0 {
			t.Errorf("atomic restarts = %d with ample reserved energy, want 0", res.AtomicRestarts)
		}
	})
}

// Checkpoint policies: with progress lost on failure (NoCheckpoint), an
// intermittent workload completes fewer jobs than with JIT checkpointing;
// periodic checkpointing lands between them.
func TestCheckpointPolicyOrdering(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine EngineKind) {
		prof := device.Apollo4()
		store := energy.DefaultConfig()
		store.Capacitance = 0.004 // usable ≈ 11.5 mJ: MobileNetV2 (12 mJ) spans charges
		run := func(policy CheckpointPolicy) metrics.Results {
			app := prof.PersonDetectionApp()
			s, err := New(Config{
				Profile: prof, App: app,
				Engine:     engine,
				Controller: noadaptController(t, app),
				Power:      trace.Constant{P: 0.004},
				Events:     steadyEvents(4, 10, 20, true),
				Store:      store,
				Checkpoint: policy,
				DrainTime:  200,
				Seed:       3,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		jit := run(JITCheckpoint)
		none := run(NoCheckpoint)
		periodic := run(PeriodicCheckpoint)
		if jit.JobsCompleted == 0 {
			t.Fatal("JIT run completed nothing; store/power calibration broken")
		}
		if none.JobsCompleted > jit.JobsCompleted {
			t.Errorf("NoCheckpoint completed %d > JIT %d", none.JobsCompleted, jit.JobsCompleted)
		}
		if periodic.JobsCompleted < none.JobsCompleted {
			t.Errorf("Periodic completed %d < NoCheckpoint %d", periodic.JobsCompleted, none.JobsCompleted)
		}
		t.Logf("jobs completed: jit=%d periodic=%d none=%d",
			jit.JobsCompleted, periodic.JobsCompleted, none.JobsCompleted)
	})
}

func TestCheckpointPolicyString(t *testing.T) {
	cases := map[CheckpointPolicy]string{
		JITCheckpoint: "jit", NoCheckpoint: "none", PeriodicCheckpoint: "periodic",
		CheckpointPolicy(9): "CheckpointPolicy(9)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

// Latency jitter: with a large override, observed job times vary, and the
// run still completes consistently (the PID absorbs the error).
func TestTexeJitter(t *testing.T) {
	prof := device.Apollo4()
	forEachEngine(t, func(t *testing.T, engine EngineKind) {
		app := prof.PersonDetectionApp()
		s, err := New(Config{
			Profile: prof, App: app,
			Engine:             engine,
			Controller:         quetzalController(t, app),
			Power:              trace.Constant{P: 0.05},
			Events:             steadyEvents(6, 10, 15, true),
			TexeJitterOverride: 0.5,
			Seed:               4,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.JobsCompleted == 0 {
			t.Fatal("no jobs completed under jitter")
		}
		if err := res.Check(); err != nil {
			t.Fatal(err)
		}
	})
	// Invalid override rejected.
	app := prof.PersonDetectionApp()
	if _, err := New(Config{
		Profile: prof, App: app, Controller: noadaptController(t, app),
		Power: trace.Constant{P: 0.05}, Events: steadyEvents(1, 2, 5, true),
		TexeJitterOverride: 1.5,
	}); err == nil {
		t.Error("New accepted jitter > 1")
	}
}

// Little's Law must hold on the simulator itself: for a stable workload,
// average occupancy ≈ throughput × average sojourn.
func TestLittlesLawHolds(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine EngineKind) {
		prof := device.Apollo4()
		app := prof.PersonDetectionApp()
		s, err := New(Config{
			Profile: prof, App: app,
			Engine:     engine,
			Controller: noadaptController(t, app),
			Power:      trace.Constant{P: 0.15}, // ample power: stable queue
			Events:     steadyEvents(40, 5, 10, true),
			DrainTime:  120,
			Seed:       5,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.SojournCount < 50 {
			t.Fatalf("only %d completions; workload too small for the law", res.SojournCount)
		}
		// L is the time-averaged occupancy; λ·W reduces to the summed
		// sojourn time over the run.
		lhs := res.OccupancyIntegral / res.SimSeconds
		rhs := res.SojournSum / res.SimSeconds
		if lhs <= 0 || rhs <= 0 {
			t.Fatalf("degenerate measurements: L=%g λW=%g", lhs, rhs)
		}
		if math.Abs(lhs-rhs)/rhs > 0.15 {
			t.Errorf("Little's Law violated: L=%.3f, λ·W=%.3f (>15%% apart)", lhs, rhs)
		}
		t.Logf("L=%.3f λ·W=%.3f", lhs, rhs)
	})
}

// Timeline output: rows at the configured cadence with a header, under
// either engine (the event engine lands segment boundaries on the row grid
// via the observer horizon).
func TestTimelineOutput(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine EngineKind) {
		prof := device.Apollo4()
		app := prof.PersonDetectionApp()
		var buf bytes.Buffer
		s, err := New(Config{
			Profile: prof, App: app,
			Engine:           engine,
			Controller:       noadaptController(t, app),
			Power:            trace.Constant{P: 0.02},
			Events:           steadyEvents(2, 5, 10, true),
			Timeline:         &buf,
			TimelineInterval: 2,
			Seed:             6,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if lines[0] != "t_s,power_mw,store_mj,occupancy,state" {
			t.Errorf("header = %q", lines[0])
		}
		wantRows := int(res.SimSeconds/2) + 1
		if got := len(lines) - 1; got < wantRows-2 || got > wantRows+2 {
			t.Errorf("timeline rows = %d, want ≈ %d", got, wantRows)
		}
		if !strings.Contains(buf.String(), ",exec:") && !strings.Contains(buf.String(), ",idle") {
			t.Error("timeline rows carry no state labels")
		}
	})
}
