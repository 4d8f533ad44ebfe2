package sched

// Property tests for Algorithm 1. Rather than mirroring the implementation
// with an identical argmin (a tautology), each property states something the
// paper promises and checks it against randomized task mixes, input-power
// shifts and buffer contents:
//
//	P1  the picked job's E[S] is never worse than any schedulable alternative
//	P2  ties break deterministically toward the older buffered input
//	P3  within the picked job, the oldest capture is processed first
//	P4  the reported ExpectedS is the real E[S] of the picked job
//
// Failures found while randomizing are frozen as seeds in
// TestEnergySJFSeededRegressions so they stay fixed forever.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"quetzal/internal/buffer"
	"quetzal/internal/model"
)

// randomMix builds a random app (1–5 jobs, 1–3 tasks each, 1–4 options per
// task), a random estimator for it, and a random buffer tagged with its job
// ids. Se2e values are quantized to 0.25 s so E[S] ties happen often enough
// to exercise the tie-break, and probabilities to 0.1 for the same reason.
func randomMix(rng *rand.Rand) (*model.App, *fakeEstimator, *buffer.Buffer) {
	numJobs := 1 + rng.Intn(5)
	jobs := make([]*model.Job, numJobs)
	est := &fakeEstimator{se2e: map[[3]int]float64{}, prob: map[[2]int]float64{}}
	for j := 0; j < numJobs; j++ {
		numTasks := 1 + rng.Intn(3)
		tasks := make([]*model.Task, numTasks)
		for ti := 0; ti < numTasks; ti++ {
			numOpts := 1 + rng.Intn(model.MaxOptions)
			opts := make([]model.Option, numOpts)
			for oi := range opts {
				opts[oi] = model.Option{
					Name: fmt.Sprintf("j%dt%do%d", j, ti, oi),
					Texe: 0.1 + rng.Float64(), Pexe: 0.01,
				}
				// The estimator models the current input power P_in: Se2e
				// is what the policy actually consumes.
				est.se2e[[3]int{j, ti, oi}] = 0.25 * float64(1+rng.Intn(16))
			}
			tasks[ti] = &model.Task{Name: fmt.Sprintf("j%dt%d", j, ti), Options: opts}
			est.prob[[2]int{j, ti}] = 0.1 * float64(1+rng.Intn(10))
		}
		// At most one degradable task per job (§5.2): trim extras to 1 option.
		seen := false
		for _, task := range tasks {
			if task.Degradable() {
				if seen {
					task.Options = task.Options[:1]
				}
				seen = true
			}
		}
		jobs[j] = &model.Job{ID: j, Name: fmt.Sprintf("job%d", j), Tasks: tasks, SpawnJobID: model.NoSpawn}
	}
	app := &model.App{Name: "prop", Jobs: jobs, EntryJobID: 0}
	if err := app.Validate(); err != nil {
		panic("randomMix built an invalid app: " + err.Error())
	}

	buf := buffer.New(16)
	n := 1 + rng.Intn(12)
	for i := 0; i < n; i++ {
		buf.Push(buffer.Input{
			Seq: uint64(i),
			// Quantized capture times force same-age candidates too.
			CapturedAt: float64(rng.Intn(8)),
			JobID:      rng.Intn(numJobs),
		})
	}
	return app, est, buf
}

// checkEnergySJFProperties runs Select once and verifies P1–P4. It reports a
// descriptive error rather than failing, so callers can attach the seed.
func checkEnergySJFProperties(app *model.App, est *fakeEstimator, buf *buffer.Buffer) error {
	d := EnergySJF{}.Select(app, buf, est)
	if buf.Len() == 0 {
		if d.BufferIndex != -1 {
			return fmt.Errorf("empty buffer but decision %+v", d)
		}
		return nil
	}
	if d.BufferIndex < 0 || d.BufferIndex >= buf.Len() {
		return fmt.Errorf("decision index %d out of range [0,%d)", d.BufferIndex, buf.Len())
	}
	picked, err := buf.At(d.BufferIndex)
	if err != nil {
		return err
	}
	if picked.JobID != d.JobID {
		return fmt.Errorf("decision job %d but buffered input at %d is tagged %d", d.JobID, d.BufferIndex, picked.JobID)
	}

	// P4: the reported estimate is the picked job's true E[S].
	es := ExpectedService(app.JobByID(d.JobID), est, nil)
	if d.ExpectedS != es {
		return fmt.Errorf("reported E[S] %g != computed %g", d.ExpectedS, es)
	}

	// P1: no schedulable alternative has a strictly smaller E[S].
	// P2: among E[S]-tied alternatives, none has a strictly older input.
	for _, id := range buf.JobIDs() {
		job := app.JobByID(id)
		if job == nil {
			continue
		}
		alt := ExpectedService(job, est, nil)
		if alt < es {
			return fmt.Errorf("picked job %d with E[S] %g, but job %d offers %g", d.JobID, es, id, alt)
		}
		if alt == es {
			oldest, err := buf.At(buf.OldestForJob(id))
			if err != nil {
				return err
			}
			if oldest.CapturedAt < picked.CapturedAt {
				return fmt.Errorf("tie at E[S] %g: picked capture t=%g from job %d, job %d has t=%g",
					es, picked.CapturedAt, d.JobID, id, oldest.CapturedAt)
			}
		}
	}

	// P3: within the picked job, the decision points at the oldest capture.
	for i := 0; i < buf.Len(); i++ {
		in, _ := buf.At(i)
		if in.JobID == d.JobID && in.CapturedAt < picked.CapturedAt {
			return fmt.Errorf("job %d input at t=%g scheduled before older t=%g", d.JobID, picked.CapturedAt, in.CapturedAt)
		}
	}

	// Determinism: a second call on unchanged state must agree exactly.
	if again := (EnergySJF{}).Select(app, buf, est); again != d {
		return fmt.Errorf("non-deterministic: %+v then %+v", d, again)
	}
	return nil
}

func TestEnergySJFProperties(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		app, est, buf := randomMix(rng)
		if err := checkEnergySJFProperties(app, est, buf); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestEnergySJFSeededRegressions pins the mixes that exercised the subtle
// paths while the property was being developed: dense E[S] ties (forcing the
// age tie-break), single-job buffers, and many-option tasks. Any future
// counterexample seed belongs in this list.
func TestEnergySJFSeededRegressions(t *testing.T) {
	for _, seed := range []int64{3, 7, 19, 42, 101, 255, 1009, 90210} {
		rng := rand.New(rand.NewSource(seed))
		// Several draws per seed walk the generator through different
		// buffer/app shapes from the same starting point.
		for draw := 0; draw < 5; draw++ {
			app, est, buf := randomMix(rng)
			if err := checkEnergySJFProperties(app, est, buf); err != nil {
				t.Fatalf("seed %d draw %d: %v", seed, draw, err)
			}
		}
	}
}

// TestEnergySJFTieBreakIsTotal pins the corner the randomizer rarely hits
// head-on: every candidate tied on both E[S] and capture time. The decision
// must still be deterministic and must pick one of the tied inputs.
func TestEnergySJFTieBreakIsTotal(t *testing.T) {
	app := twoJobApp()
	est := &fakeEstimator{se2e: map[[3]int]float64{
		{0, 0, 0}: 2, {0, 0, 1}: 2,
		{1, 0, 0}: 2, {1, 0, 1}: 2,
	}}
	b := buffer.New(10)
	push(b, 0, 1.5, 0)
	push(b, 1, 1.5, 1) // same capture time, same E[S]
	first := EnergySJF{}.Select(app, b, est)
	if first.BufferIndex == -1 {
		t.Fatal("no decision for a non-empty buffer")
	}
	for i := 0; i < 10; i++ {
		if got := (EnergySJF{}).Select(app, b, est); got != first {
			t.Fatalf("call %d: decision flipped from %+v to %+v", i, first, got)
		}
	}
}

// TestEnergySJFPowerShiftFlipsDecision is the paper's motivating scenario as
// a property: E[S] folds recharge time at the current P_in, so scaling every
// Se2e by the same power-dependent factor must never change the winner,
// while task-dependent shifts may. The invariant under uniform scaling is
// checked across random mixes.
func TestEnergySJFPowerShiftFlipsDecision(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		app, est, buf := randomMix(rng)
		if buf.Len() == 0 {
			continue
		}
		base := EnergySJF{}.Select(app, buf, est)

		// Uniform power scaling: all Se2e double (half the input power,
		// roughly). Relative order is preserved, so the winner must hold.
		scaled := &fakeEstimator{se2e: map[[3]int]float64{}, prob: est.prob}
		for k, v := range est.se2e {
			scaled.se2e[k] = 2 * v
		}
		got := EnergySJF{}.Select(app, buf, scaled)
		if got.BufferIndex != base.BufferIndex || got.JobID != base.JobID {
			t.Fatalf("seed %d: uniform Se2e scaling flipped the decision: %+v → %+v", seed, base, got)
		}
		if base.ExpectedS > 0 && math.Abs(got.ExpectedS-2*base.ExpectedS) > 1e-12 {
			t.Fatalf("seed %d: scaled E[S] = %g, want %g", seed, got.ExpectedS, 2*base.ExpectedS)
		}
	}
}
