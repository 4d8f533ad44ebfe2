package policy

// Property tests for the three competitor strategies. Each pins the
// invariant named in its strategy's doc comment against randomized inputs,
// so a refactor that weakens the guarantee fails loudly with a seedable
// reproducer.

import (
	"math/rand"
	"sort"
	"testing"

	"quetzal/internal/buffer"
	"quetzal/internal/core"
	"quetzal/internal/device"
)

// TestMDPNeverOvercommitsStore: for every (store level, occupancy, power,
// rate) state, when at least one quality option's execution energy fits the
// usable store, the option the MDP selects must fit too — the feasibility
// filter beats whatever the value table prefers.
func TestMDPNeverOvercommitsStore(t *testing.T) {
	app := device.Apollo4().PersonDetectionApp()
	m, err := NewMDP(app, 1)
	if err != nil {
		t.Fatalf("NewMDP: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		job := app.Jobs[rng.Intn(len(app.Jobs))]
		di, nOpts := degradableOptions(job)
		capJ := 0.001 + rng.Float64()*0.2
		env := core.Env{
			Now:           float64(trial),
			InputPower:    rng.Float64() * 0.1,
			BufferLen:     rng.Intn(17),
			BufferCap:     1 + rng.Intn(16),
			StoreEnergy:   rng.Float64() * capJ,
			StoreCapacity: capJ,
		}
		// Feed the tracker a random observation stream so λ cells vary.
		m.ObserveCapture(rng.Intn(2) == 0)

		choice := m.Choose(env, job)
		if choice < 0 || choice >= nOpts {
			t.Fatalf("trial %d: Choose returned %d, want [0,%d)", trial, choice, nOpts)
		}
		anyFits := false
		for a := 0; a < nOpts; a++ {
			if energyAt(job, di, a) <= env.StoreEnergy {
				anyFits = true
				break
			}
		}
		if anyFits && energyAt(job, di, choice) > env.StoreEnergy {
			t.Fatalf("trial %d: chose option %d costing %g J with only %g J usable while a fitting option exists (job %s)",
				trial, choice, energyAt(job, di, choice), env.StoreEnergy, job.Name)
		}
	}
}

// TestEnSuReBackupReserve: every planned backup window must reserve at
// least the min(k, prefix) largest high-quality re-execution times among
// the items due by its deadline — the k-fault guarantee's arithmetic.
func TestEnSuReBackupReserve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(4)
		n := 1 + rng.Intn(12)
		items := make([]EnSuReItem, n)
		for i := range items {
			items[i] = EnSuReItem{
				ID:       i,
				Deadline: rng.Float64() * 100,
				Exec:     0.01 + rng.Float64()*5,
			}
		}
		windows := PlanBackups(items, k)
		if len(windows) != n {
			t.Fatalf("trial %d: %d windows for %d items", trial, len(windows), n)
		}
		// Recompute the reserve oracle: sort a copy by (deadline, id), take
		// the top-k execs over each prefix by brute force.
		sorted := append([]EnSuReItem(nil), items...)
		sort.SliceStable(sorted, func(i, j int) bool {
			if sorted[i].Deadline != sorted[j].Deadline {
				return sorted[i].Deadline < sorted[j].Deadline
			}
			return sorted[i].ID < sorted[j].ID
		})
		for i, w := range windows {
			if w.ID != sorted[i].ID || w.Deadline != sorted[i].Deadline {
				t.Fatalf("trial %d: window %d is %+v, want item %+v order", trial, i, w, sorted[i])
			}
			execs := make([]float64, 0, i+1)
			for j := 0; j <= i; j++ {
				execs = append(execs, sorted[j].Exec)
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(execs)))
			want := 0.0
			for j := 0; j < k && j < len(execs); j++ {
				want += execs[j]
			}
			got := w.Deadline - w.Start
			if diff := got - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("trial %d window %d (k=%d): reserved %g, want top-k sum %g", trial, i, k, got, want)
			}
		}
	}
}

// TestEnSuReFaultFreeMeetsDeadlines: whenever FaultFreeFeasible admits an
// item set, running the primaries back-to-back in deadline order must meet
// every deadline with the backup window untouched — and the reserve must
// still cover the k largest re-executions due by each deadline.
func TestEnSuReFaultFreeMeetsDeadlines(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	admitted := 0
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.Intn(3)
		n := 1 + rng.Intn(8)
		now := rng.Float64() * 10
		items := make([]EnSuReItem, n)
		for i := range items {
			items[i] = EnSuReItem{
				ID:       i,
				Deadline: now + rng.Float64()*200,
				Exec:     0.01 + rng.Float64()*3,
			}
		}
		if !FaultFreeFeasible(items, k, now) {
			continue
		}
		admitted++
		windows := PlanBackups(items, k)
		tAt := now
		for i, w := range windows {
			tAt += w.Exec
			if tAt > w.Start {
				t.Fatalf("trial %d: admitted set's primary %d finishes at %g, inside its backup window [%g, %g]",
					trial, i, tAt, w.Start, w.Deadline)
			}
			if tAt > w.Deadline {
				t.Fatalf("trial %d: admitted set misses deadline %d (%g > %g)", trial, i, tAt, w.Deadline)
			}
		}
	}
	if admitted == 0 {
		t.Fatal("no trial was admitted; the property was never exercised")
	}
}

// TestInterweaveNeverIdles: with any runnable capture pending — whatever
// the store level, including fully drained — the interweaver dispatches.
func TestInterweaveNeverIdles(t *testing.T) {
	app := device.Apollo4().PersonDetectionApp()
	w, err := NewInterweave(app)
	if err != nil {
		t.Fatalf("NewInterweave: %v", err)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 1000; trial++ {
		buf := buffer.New(1 + rng.Intn(16))
		n := 1 + rng.Intn(buf.Capacity())
		for i := 0; i < n; i++ {
			buf.Push(buffer.Input{
				Seq:        uint64(i),
				CapturedAt: float64(i),
				JobID:      app.Jobs[rng.Intn(len(app.Jobs))].ID,
			})
		}
		env := core.Env{
			Now:           float64(trial),
			InputPower:    rng.Float64() * 0.05,
			BufferLen:     buf.Len(),
			BufferCap:     buf.Capacity(),
			StoreEnergy:   rng.Float64() * 0.01 * float64(rng.Intn(2)), // often exactly 0
			StoreCapacity: 0.01,
		}
		dec, ok := w.NextJob(env, buf)
		if !ok {
			t.Fatalf("trial %d: idle with %d runnable captures pending (store %g J)",
				trial, buf.Len(), env.StoreEnergy)
		}
		if dec.BufferIndex < 0 || dec.BufferIndex >= buf.Len() {
			t.Fatalf("trial %d: buffer index %d out of range [0,%d)", trial, dec.BufferIndex, buf.Len())
		}
		in, err := buf.At(dec.BufferIndex)
		if err != nil {
			t.Fatalf("trial %d: At(%d): %v", trial, dec.BufferIndex, err)
		}
		if in.JobID != dec.JobID {
			t.Fatalf("trial %d: decision job %d does not match buffered input's job %d",
				trial, dec.JobID, in.JobID)
		}
	}

	// The empty buffer is the one legitimate idle.
	if _, ok := w.NextJob(core.Env{BufferCap: 4}, buffer.New(4)); ok {
		t.Fatal("NextJob on an empty buffer returned ok")
	}
}
