package ibo

import (
	"testing"

	"quetzal/internal/model"
)

// Additional coverage for the plan resolver's corner cases.

// A job unreachable from the entry chain contributes nothing to utilization
// and keeps quality 0 in the plan.
func TestUnreachableJobIgnoredInUtilization(t *testing.T) {
	app := chainApp()
	orphan := &model.Job{ID: 9, Name: "orphan", Tasks: []*model.Task{
		{Name: "heavy", Kind: model.Compute, Options: []model.Option{opt("h", 100), opt("l", 1)}},
	}, SpawnJobID: model.NoSpawn}
	app.Jobs = append(app.Jobs, orphan)

	est := &fakeEstimator{se2e: map[[3]int]float64{
		{0, 0, 0}: 0.2,
		{1, 0, 0}: 0.1,
		{1, 1, 0}: 0.1,
		{9, 0, 0}: 100, // would dominate ρ if it counted
	}}
	d := decide(app.JobByID(0), input(app, est, 1, 5, 10, 0))
	if d.IBOPredicted {
		t.Errorf("orphan job's cost leaked into the utilization check: %+v", d)
	}
}

// When the orphan job itself is scheduled (it has buffered inputs via some
// out-of-band path), the burst check still applies to it.
func TestOrphanJobStillBurstChecked(t *testing.T) {
	app := chainApp()
	orphan := &model.Job{ID: 9, Name: "orphan", Tasks: []*model.Task{
		{Name: "heavy", Kind: model.Compute, Options: []model.Option{opt("h", 50), opt("l", 1)}},
	}, SpawnJobID: model.NoSpawn}
	app.Jobs = append(app.Jobs, orphan)
	est := &fakeEstimator{se2e: map[[3]int]float64{
		{9, 0, 0}: 50, {9, 0, 1}: 1,
	}}
	d := decide(orphan, input(app, est, 1, 3, 10, 0))
	if !d.IBOPredicted {
		t.Fatal("burst check silent for λ·50 ≥ 3")
	}
	if d.OptionIdx != 1 || !d.Averted {
		t.Errorf("decision = %+v, want degraded to option 1 and averted", d)
	}
}

// The spawn-probability clamp: out-of-range values from the tracker hook
// are clamped into [0,1].
func TestSpawnProbClamped(t *testing.T) {
	app := chainApp()
	in := input(app, &fakeEstimator{}, 1, 5, 10, 0)
	in.SpawnProb = func(int) float64 { return 7 }
	if got := in.spawnProb(0); got != 1 {
		t.Errorf("spawnProb clamped high = %g, want 1", got)
	}
	in.SpawnProb = func(int) float64 { return -3 }
	if got := in.spawnProb(0); got != 0 {
		t.Errorf("spawnProb clamped low = %g, want 0", got)
	}
	in.SpawnProb = nil
	if got := in.spawnProb(0); got != 1 {
		t.Errorf("nil SpawnProb = %g, want 1", got)
	}
}

// resolvePlan with an unstable system pins every degradable job to its
// cheapest option.
func TestResolvePlanUnstablePinsCheapest(t *testing.T) {
	app := chainApp()
	est := &fakeEstimator{se2e: map[[3]int]float64{
		{0, 0, 0}: 50, {0, 0, 1}: 10, // even LQ ML can't stabilise
		{1, 0, 0}: 5,
		{1, 1, 0}: 50, {1, 1, 1}: 30, {1, 1, 2}: 20,
	}}
	in := input(app, est, 1, 2, 10, 0)
	plan, stable := planOf(in)
	if stable {
		t.Fatal("system reported stable at ρ ≫ 1")
	}
	if plan[0] != 1 {
		t.Errorf("detect pinned to %d, want cheapest (1)", plan[0])
	}
	if plan[1] != 2 {
		t.Errorf("report pinned to %d, want cheapest (2)", plan[1])
	}
}

// The occupancy gate boundary: occupancy exactly at 20 % of capacity
// activates the utilization check.
func TestOccupancyGateBoundary(t *testing.T) {
	app := chainApp()
	est := &fakeEstimator{se2e: map[[3]int]float64{
		{0, 0, 0}: 3, // ρ = 3 with the default 1s elsewhere
	}}
	// Capacity 10: occupancy 1 (free 9) is below the gate → no prediction.
	if d := decide(app.JobByID(0), input(app, est, 1, 9, 10, 0)); d.IBOPredicted {
		t.Error("gate failed to suppress at 10% occupancy")
	}
	// Occupancy 2 (free 8) hits the 20% gate → utilization fires.
	if d := decide(app.JobByID(0), input(app, est, 1, 8, 10, 0)); !d.IBOPredicted {
		t.Error("utilization silent at the 20% gate boundary")
	}
}

// Zero-capacity input (no gate information) falls back to always applying
// the utilization check.
func TestZeroCapacityAppliesUtilization(t *testing.T) {
	app := chainApp()
	est := &fakeEstimator{se2e: map[[3]int]float64{{0, 0, 0}: 5}}
	d := decide(app.JobByID(0), Input{App: app, Est: est, Lambda: 1, FreeSlots: 100})
	if !d.IBOPredicted {
		t.Error("utilization skipped when capacity unknown")
	}
}
