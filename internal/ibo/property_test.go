package ibo

// Property tests for Algorithm 2's reaction contract, over randomized
// monotone option tables. Degradation options are generated with strictly
// decreasing S_e2e (a degradation that is slower than the quality it
// replaces would never be profiled into a device), which is what makes the
// properties total:
//
//	P1  if any option at or past the plan clears the burst check, the
//	    reactor picks one that clears it — never an overflow-predicted
//	    option while a safe one exists
//	P2  among the clearing options it picks the highest quality (lowest
//	    index at or past the plan)
//	P3  if nothing clears, it falls back to the argmin-E[S] option ("in
//	    order to reduce E[N]")
//	P4  no prediction → no degradation, and the plan is full quality
//	P5  resolvePlan returns a stable assignment whenever one exists
//	    (checked by exhaustive enumeration of the option space)

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"quetzal/internal/model"
)

// randomReactorCase builds a 1–3 job spawn chain whose degradable tasks have
// 2–4 options with strictly decreasing Se2e, plus a random Input.
func randomReactorCase(rng *rand.Rand) (*model.App, Input) {
	numJobs := 1 + rng.Intn(3)
	est := &fakeEstimator{se2e: map[[3]int]float64{}, prob: map[[2]int]float64{}}
	jobs := make([]*model.Job, numJobs)
	for j := 0; j < numJobs; j++ {
		numOpts := 2 + rng.Intn(model.MaxOptions-1)
		opts := make([]model.Option, numOpts)
		// Strictly decreasing Se2e: start high, shave a random positive
		// amount per degradation step.
		se := 2 + 6*rng.Float64()
		for oi := range opts {
			opts[oi] = model.Option{Name: fmt.Sprintf("j%do%d", j, oi), Texe: se, Pexe: 0.01}
			est.se2e[[3]int{j, 0, oi}] = se
			se -= (0.2 + rng.Float64()) * se / 2
		}
		est.prob[[2]int{j, 0}] = 0.2 + 0.8*rng.Float64()
		spawn := model.NoSpawn
		if j+1 < numJobs {
			spawn = j + 1
		}
		jobs[j] = &model.Job{
			ID: j, Name: fmt.Sprintf("job%d", j),
			Tasks:      []*model.Task{{Name: fmt.Sprintf("t%d", j), Options: opts}},
			SpawnJobID: spawn,
		}
	}
	app := &model.App{Name: "reactor", Jobs: jobs, EntryJobID: 0}
	if err := app.Validate(); err != nil {
		panic("randomReactorCase built an invalid app: " + err.Error())
	}
	capacity := 4 + rng.Intn(12)
	in := Input{
		App:        app,
		Est:        est,
		Lambda:     0.05 + 3*rng.Float64(),
		FreeSlots:  rng.Intn(capacity + 1),
		Capacity:   capacity,
		Correction: (rng.Float64() - 0.5) * 2, // ±1 s of PID correction
	}
	if rng.Intn(2) == 0 {
		p := rng.Float64()
		in.SpawnProb = func(int) float64 { return p }
	}
	return app, in
}

// checkReactorProperties verifies P1–P4 for the entry job of one case.
func checkReactorProperties(app *model.App, in Input) error {
	job := app.JobByID(app.EntryJobID)
	d := decide(job, in)
	plan, _ := planOf(in)

	di := job.DegradableTask()
	numOpts := len(job.Tasks[di].Options)
	esAt := func(opt int) float64 { return expectedService(&in, job, di, opt) }
	if d.OptionIdx < 0 || d.OptionIdx >= numOpts {
		return fmt.Errorf("option %d out of range [0,%d)", d.OptionIdx, numOpts)
	}
	if d.ExpectedS != esAt(d.OptionIdx) {
		return fmt.Errorf("ExpectedS %g != E[S] at chosen option %g", d.ExpectedS, esAt(d.OptionIdx))
	}

	if !d.IBOPredicted {
		// P4: no prediction means full quality and no chain-wide plan.
		if d.OptionIdx != 0 {
			return fmt.Errorf("no prediction but degraded to option %d", d.OptionIdx)
		}
		if degraded(plan) {
			return fmt.Errorf("no prediction but degrading plan %v", plan)
		}
		if burstOverflow(&in, esAt(0)) {
			return fmt.Errorf("burst check fires at full quality but IBOPredicted is false")
		}
		return nil
	}

	// The escalation scan starts at the plan's option for this job.
	start := plan[job.ID]
	clearing := -1 // highest-quality option at/past the plan that clears
	for opt := start; opt < numOpts; opt++ {
		if !burstOverflow(&in, esAt(opt)) {
			clearing = opt
			break
		}
	}

	if clearing >= 0 {
		// P1: a safe option exists, so the reactor must not pick an
		// overflow-predicted one.
		if burstOverflow(&in, d.ExpectedS) {
			return fmt.Errorf("picked option %d predicted to overflow while option %d clears", d.OptionIdx, clearing)
		}
		if !d.Averted {
			return fmt.Errorf("option %d clears the burst check but Averted is false", d.OptionIdx)
		}
		// P2: and among the safe options, the highest quality one.
		if d.OptionIdx != clearing {
			return fmt.Errorf("picked option %d, but %d is the highest quality that clears", d.OptionIdx, clearing)
		}
		return nil
	}

	// P3: nothing clears — fall back to the E[S]-argmin option.
	if d.Averted {
		return fmt.Errorf("no option clears the burst check but Averted is true")
	}
	for opt := 0; opt < numOpts; opt++ {
		if esAt(opt) < d.ExpectedS {
			return fmt.Errorf("fallback picked option %d (E[S] %g) but option %d has %g",
				d.OptionIdx, d.ExpectedS, opt, esAt(opt))
		}
	}
	return nil
}

func TestReactorProperties(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		app, in := randomReactorCase(rng)
		if err := checkReactorProperties(app, in); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestReactorSeededRegressions freezes the generator states that covered the
// reaction paths during development: saturated buffers (fallback), roomy
// buffers with diverging utilization (plan-driven starts), and corrections
// large enough to flip the burst check. Future counterexamples join here.
func TestReactorSeededRegressions(t *testing.T) {
	for _, seed := range []int64{2, 11, 33, 77, 128, 512, 4096, 31337} {
		rng := rand.New(rand.NewSource(seed))
		for draw := 0; draw < 5; draw++ {
			app, in := randomReactorCase(rng)
			if err := checkReactorProperties(app, in); err != nil {
				t.Fatalf("seed %d draw %d: %v", seed, draw, err)
			}
		}
	}
}

// TestResolvePlanProperties checks P5: whenever *some* assignment keeps
// ρ < 1 (verified by exhaustively enumerating the whole option space, which
// is tiny by the §5.1 limits), resolvePlan must find a stable one; and
// whatever plan it returns must itself be stable.
func TestResolvePlanProperties(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x91a4))
		app, in := randomReactorCase(rng)
		// Force the occupancy gate open so the stability check really
		// tests ρ.
		in.FreeSlots = 0

		plan, ok := planOf(in)
		if ok && !refUtilizationOK(in, plan) {
			t.Fatalf("seed %d: resolvePlan returned ok with unstable plan %v (ρ = %g)", seed, plan, refUtilization(in, plan))
		}

		// Exhaustive oracle over every full assignment.
		exists := false
		var walk func(idx int, a refAssignment)
		walk = func(idx int, a refAssignment) {
			if exists {
				return
			}
			if idx == len(app.Jobs) {
				if refUtilizationOK(in, a) {
					exists = true
				}
				return
			}
			j := app.Jobs[idx]
			di := j.DegradableTask()
			if di < 0 {
				walk(idx+1, a)
				return
			}
			for opt := 0; opt < len(j.Tasks[di].Options); opt++ {
				a[j.ID] = opt
				walk(idx+1, a)
			}
			delete(a, j.ID)
		}
		walk(0, refAssignment{})

		if exists && !ok {
			t.Fatalf("seed %d: a stable assignment exists but resolvePlan reported none", seed)
		}
		if !exists && ok {
			t.Fatalf("seed %d: resolvePlan claims stability where exhaustive search finds none", seed)
		}
	}
}

// sameDecision reports whether d equals the reference decision bit for bit.
func sameDecision(d Decision, ref refDecision) bool {
	return d.IBOPredicted == ref.IBOPredicted && d.Averted == ref.Averted &&
		d.OptionIdx == ref.OptionIdx &&
		math.Float64bits(d.ExpectedS) == math.Float64bits(ref.ExpectedS)
}

// checkMatchesReference decides for every job of the case, on the shared
// Scratch s and on a fresh one, and compares each decision and the resolved
// plan with the map-based reference.
func checkMatchesReference(s *Scratch, app *model.App, in Input) error {
	for _, job := range app.Jobs {
		ref := refDecide(job, in)
		for _, sc := range []*Scratch{s, new(Scratch)} {
			if d := sc.Decide(job, in); !sameDecision(d, ref) {
				return fmt.Errorf("job %d: decision %+v, reference %+v", job.ID, d, ref)
			}
		}
		if !ref.IBOPredicted && len(ref.Plan) != 0 {
			return fmt.Errorf("job %d: reference plan %v without a prediction", job.ID, ref.Plan)
		}
	}
	refPlan, refOK := refResolvePlan(in)
	fullOK, ok := s.resolvePlan(&in)
	if ok != refOK || fullOK != refUtilizationOK(in, refAssignment{}) {
		return fmt.Errorf("resolvePlan (full %v, ok %v), reference ok %v", fullOK, ok, refOK)
	}
	for pos, j := range app.Jobs {
		if got, want := s.plan[pos], refPlannedOpt(refPlan, j); got != want {
			return fmt.Errorf("job %d: plan option %d, reference %d", j.ID, got, want)
		}
	}
	// ρ itself, bit for bit: its summation order is part of the contract.
	if got, want := s.utilization(&in), refUtilization(in, refPlan); math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("ρ at the plan = %v, reference %v", got, want)
	}
	return nil
}

// TestDecideMatchesReference pins the allocation-free engine to the
// map-based one on every generator state the property tests use, with the
// occupancy gate both as drawn and forced open.
func TestDecideMatchesReference(t *testing.T) {
	var s Scratch
	check := func(name string, app *model.App, in Input) {
		t.Helper()
		if err := checkMatchesReference(&s, app, in); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in.FreeSlots = 0
		if err := checkMatchesReference(&s, app, in); err != nil {
			t.Fatalf("%s, gate open: %v", name, err)
		}
	}
	for seed := int64(0); seed < 400; seed++ {
		app, in := randomReactorCase(rand.New(rand.NewSource(seed)))
		check(fmt.Sprintf("seed %d", seed), app, in)
	}
	for _, seed := range []int64{2, 11, 33, 77, 128, 512, 4096, 31337} {
		rng := rand.New(rand.NewSource(seed))
		for draw := 0; draw < 5; draw++ {
			app, in := randomReactorCase(rng)
			check(fmt.Sprintf("seed %d draw %d", seed, draw), app, in)
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		app, in := randomReactorCase(rand.New(rand.NewSource(seed ^ 0x91a4)))
		check(fmt.Sprintf("plan seed %d", seed), app, in)
	}
}
