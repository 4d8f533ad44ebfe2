package fleet

import (
	"context"
	"encoding/json"
	"testing"

	"quetzal/internal/experiments"
)

// testPlan resolves a small fleet plan through the same FleetSpec gate the
// service and CLI use.
func testPlan(t *testing.T, devices int, mutate func(*experiments.FleetSpec)) experiments.FleetPlan {
	t.Helper()
	spec := experiments.FleetSpec{
		Devices: devices,
		System:  experiments.SysQuetzal,
		Env:     experiments.LessCrowded.Name,
		Events:  3,
		Jitter:  0.2,
	}
	if mutate != nil {
		mutate(&spec)
	}
	plan, err := spec.Plan()
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return plan
}

// TestFleetDeterminism is the acceptance pin for the whole fleet path: the
// marshaled Aggregate must be byte-identical across worker counts, shard
// sizes, and window depths — resharding or reparallelizing a fleet may not
// move a single bit of its result.
func TestFleetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet determinism sweep is seconds-long")
	}
	const devices = 96
	var reference []byte
	for _, cfg := range []struct {
		workers, shard, window int
	}{
		{1, devices, 0}, // single worker, single shard: the ground truth
		{4, 16, 0},
		{16, 7, 3}, // ragged final shard + tight window
	} {
		plan := testPlan(t, devices, func(sp *experiments.FleetSpec) {
			sp.ShardSize = cfg.shard
		})
		agg, stats, err := Run(context.Background(), plan, Options{
			Workers: cfg.workers,
			Window:  cfg.window,
		})
		if err != nil {
			t.Fatalf("workers=%d shard=%d: %v", cfg.workers, cfg.shard, err)
		}
		if stats.Devices != devices || agg.Totals.Devices != devices {
			t.Fatalf("workers=%d shard=%d: ran %d/%d devices, want %d",
				cfg.workers, cfg.shard, stats.Devices, agg.Totals.Devices, devices)
		}
		got, err := json.Marshal(agg)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if reference == nil {
			reference = got
			// The reference run must describe a live fleet, not a vacuum.
			if agg.Totals.Arrivals == 0 || agg.SimSeconds <= 0 {
				t.Fatalf("degenerate reference aggregate: %s", got)
			}
			continue
		}
		if string(got) != string(reference) {
			t.Errorf("workers=%d shard=%d window=%d: aggregate diverged from reference\n got: %s\nwant: %s",
				cfg.workers, cfg.shard, cfg.window, got, reference)
		}
	}
}

// TestFleetDeterminismLockstep pins the engine half of the fleet contract:
// swapping the stepper between event-driven and lockstep may not move a
// single bit of the marshaled Aggregate. With TestFleetDeterminism (which
// runs under the default lockstep engine) this proves the fleet default can
// change speed without changing physics.
func TestFleetDeterminismLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small fleets")
	}
	run := func(engine string) string {
		plan := testPlan(t, 48, func(sp *experiments.FleetSpec) { sp.Engine = engine })
		agg, _, err := Run(context.Background(), plan, Options{Workers: 4})
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		if agg.Totals.Arrivals == 0 || agg.SimSeconds <= 0 {
			t.Fatalf("engine %s: degenerate aggregate", engine)
		}
		b, err := json.Marshal(agg)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return string(b)
	}
	event, lockstep := run("event"), run("lockstep")
	if event != lockstep {
		t.Errorf("lockstep aggregate diverged from event-driven\n   event: %s\nlockstep: %s",
			event, lockstep)
	}
}

// TestFleetSeedChangesAggregate guards against the failure mode where device
// seeds collapse to a constant (every device identical) or the fleet seed is
// ignored.
func TestFleetSeedChangesAggregate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small fleets")
	}
	run := func(seed int64) string {
		plan := testPlan(t, 24, func(sp *experiments.FleetSpec) { sp.Seed = seed })
		agg, _, err := Run(context.Background(), plan, Options{Workers: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := json.Marshal(agg)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return string(b)
	}
	if run(42) == run(1042) {
		t.Fatal("different fleet seeds produced identical aggregates")
	}
}

// TestDeviceSeedProperties pins the seed-derivation contract: distinct
// (device, stream) pairs get distinct seeds, and the derivation depends on
// nothing else.
func TestDeviceSeedProperties(t *testing.T) {
	const fleetSeed = 42
	streams := []Stream{StreamSolar, StreamEvents, StreamSim, StreamJitter, StreamRegional}
	seen := make(map[int64][2]int)
	for dev := 0; dev < 2000; dev++ {
		for _, st := range streams {
			s := DeviceSeed(fleetSeed, dev, st)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: device %d stream %d == device %d stream %d",
					dev, st, prev[0], prev[1])
			}
			seen[s] = [2]int{dev, int(st)}
			// Pure function of its inputs: recomputation agrees.
			if again := DeviceSeed(fleetSeed, dev, st); again != s {
				t.Fatalf("DeviceSeed not deterministic for device %d stream %d", dev, st)
			}
		}
	}
	// A different fleet seed relabels everything.
	if DeviceSeed(1, 0, StreamSolar) == DeviceSeed(2, 0, StreamSolar) {
		t.Fatal("fleet seed does not reach the derived seed")
	}
}

// TestFleetSolarOrderInvariance pins the correlated-sky contract: the trace a
// device draws depends only on its seed and duration, not on the order
// devices ask. Two fleets generating the same devices in opposite order must
// produce identical traces.
func TestFleetSolarOrderInvariance(t *testing.T) {
	plan := testPlan(t, 8, nil)
	fwd, err := newFleetRun(plan, Options{}.withDefaults())
	if err != nil {
		t.Fatalf("newFleetRun: %v", err)
	}
	rev, err := newFleetRun(plan, Options{}.withDefaults())
	if err != nil {
		t.Fatalf("newFleetRun: %v", err)
	}

	type sample struct{ t, p float64 }
	probe := func(f *fleetRun, i int) []sample {
		cfg, err := f.deviceConfig(i)
		if err != nil {
			t.Fatalf("deviceConfig(%d): %v", i, err)
		}
		out := make([]sample, 0, 40)
		for ts := 0.0; ts < 20; ts += 0.5 {
			out = append(out, sample{ts, cfg.Power.Power(ts)})
		}
		return out
	}

	forward := make([][]sample, plan.Devices)
	for i := 0; i < plan.Devices; i++ {
		forward[i] = probe(fwd, i)
	}
	for i := plan.Devices - 1; i >= 0; i-- {
		got := probe(rev, i)
		for k := range got {
			if got[k] != forward[i][k] {
				t.Fatalf("device %d trace differs at t=%g under reversed generation order: %g vs %g",
					i, got[k].t, got[k].p, forward[i][k].p)
			}
		}
	}
}

// TestFleetFaultyShardInvariance extends the determinism pin to the
// hardware-realism layer: a faulty fleet (transient faults, dropouts,
// measurement cost) must stay byte-identical across shard sizes and worker
// counts, which requires every fault draw to derive from the split fault
// stream (StreamFaults) and not from shard-local state. The CI smoke job
// runs the same check at 10k devices.
func TestFleetFaultyShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet determinism sweep is seconds-long")
	}
	const devices = 96
	faulty := func(sp *experiments.FleetSpec) {
		sp.Env = "faulty" // the league's realism environment
	}
	var reference []byte
	for _, cfg := range []struct {
		workers, shard int
	}{
		{1, devices},
		{4, 16},
		{16, 7}, // ragged final shard
	} {
		plan := testPlan(t, devices, func(sp *experiments.FleetSpec) {
			faulty(sp)
			sp.ShardSize = cfg.shard
		})
		if !plan.Env.Faults.Enabled() {
			t.Fatal("faulty environment resolved without a realism spec")
		}
		agg, _, err := Run(context.Background(), plan, Options{Workers: cfg.workers})
		if err != nil {
			t.Fatalf("workers=%d shard=%d: %v", cfg.workers, cfg.shard, err)
		}
		got, err := json.Marshal(agg)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if reference == nil {
			reference = got
			if agg.Totals.Arrivals == 0 || agg.Totals.TransientFaults == 0 {
				t.Fatalf("degenerate faulty reference (no arrivals or no faults): %s", got)
			}
			continue
		}
		if string(got) != string(reference) {
			t.Errorf("workers=%d shard=%d: faulty aggregate diverged from reference\n got: %s\nwant: %s",
				cfg.workers, cfg.shard, got, reference)
		}
	}
}

// TestFleetRejectsUnresolvedPlan pins that fleet.Run refuses a hand-built
// plan that skipped FleetSpec.Plan.
func TestFleetRejectsUnresolvedPlan(t *testing.T) {
	_, _, err := Run(context.Background(), experiments.FleetPlan{Devices: 10}, Options{})
	if err == nil {
		t.Fatal("Run accepted an unresolved plan")
	}
}
