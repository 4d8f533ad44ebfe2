package sched

// Property test for Algorithm 1 under the hardware module's quantised
// measurements across the characterised temperature range (§5.1). The
// exact-division estimator is the reference: for the same task mix, the same
// buffer and the same input power, the quantised (SeTable/Algorithm 3) choice
// may only differ from the exact choice when the exact E[S] gap between the
// candidates is inside the measurement-error band — and the regret of such a
// swap is bounded by that band. When every alternative's exact E[S] exceeds
// the winner's by more than the band, the two choices must be identical.
//
// The band is measured per mix (the worst per-task Se2e relative error), and
// the sweep also re-asserts the paper's accuracy figures at the Se2e level:
// mean error ≤ 5.5 % at the 42 °C design point and every sample within the
// two-sided quantisation limit over 25–50 °C. All eight fractional-exponent
// b-values (the low three bits of d2−d1) must be exercised by the sweep, or
// the property ran on too narrow a code range to mean anything.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"quetzal/internal/buffer"
	"quetzal/internal/circuit"
	"quetzal/internal/faults"
	"quetzal/internal/model"
)

// quantMix is one generated scenario: an app, the shared input power, and
// the paired quantised/exact estimators for it at one temperature.
type quantMix struct {
	app     *model.App
	buf     *buffer.Buffer
	hw      *fakeEstimator
	exact   *fakeEstimator
	maxErr  float64 // worst per-task Se2e relative error in the mix
	bValues map[int]bool
}

// quantisedMix builds a random app (2–5 jobs, 1–3 tasks) and derives both
// estimators from the same physical quantities: the hardware one through the
// diode/ADC module at tempC (profiling and runtime at the same temperature,
// the §5.1 error-bound regime), the exact one through floating-point
// division. Powers are drawn inside the module's dynamic range.
func quantisedMix(rng *rand.Rand, tempC float64) quantMix {
	cfg := circuit.DefaultConfig()
	cfg.TempC = tempC
	m := circuit.New(cfg)

	pin := 0.002 + 0.06*rng.Float64() // watts; d1 stays strictly positive
	d1 := m.CodeForPower(pin)

	numJobs := 2 + rng.Intn(4)
	jobs := make([]*model.Job, numJobs)
	mix := quantMix{
		hw:      &fakeEstimator{se2e: map[[3]int]float64{}, prob: map[[2]int]float64{}},
		exact:   &fakeEstimator{se2e: map[[3]int]float64{}, prob: map[[2]int]float64{}},
		bValues: map[int]bool{},
	}
	for j := 0; j < numJobs; j++ {
		numTasks := 1 + rng.Intn(3)
		tasks := make([]*model.Task, numTasks)
		for ti := 0; ti < numTasks; ti++ {
			texe := 0.05 + 2*rng.Float64()
			// Ratios up to ~4× input power cover both the compute-bound and
			// charge-bound regimes the paper characterises.
			pexe := pin * (0.5 + 3.5*rng.Float64())
			tasks[ti] = &model.Task{
				Name:    fmt.Sprintf("j%dt%d", j, ti),
				Options: []model.Option{{Name: fmt.Sprintf("j%dt%do0", j, ti), Texe: texe, Pexe: pexe}},
			}
			d2 := m.CodeForPower(pexe)
			hwS := circuit.NewSeTable(texe, d2).Se2e(d1)
			exS := circuit.Se2eExact(texe, pexe, pin)
			mix.hw.se2e[[3]int{j, ti, 0}] = hwS
			mix.exact.se2e[[3]int{j, ti, 0}] = exS
			if rel := math.Abs(hwS-exS) / exS; rel > mix.maxErr {
				mix.maxErr = rel
			}
			if d2 > d1 {
				mix.bValues[(int(d2)-int(d1))&0x07] = true
			}
			p := 0.1 * float64(1+rng.Intn(10))
			mix.hw.prob[[2]int{j, ti}] = p
			mix.exact.prob[[2]int{j, ti}] = p
		}
		jobs[j] = &model.Job{ID: j, Name: fmt.Sprintf("job%d", j), Tasks: tasks, SpawnJobID: model.NoSpawn}
	}
	mix.app = &model.App{Name: "quant", Jobs: jobs, EntryJobID: 0}
	if err := mix.app.Validate(); err != nil {
		panic("quantisedMix built an invalid app: " + err.Error())
	}

	mix.buf = buffer.New(16)
	for i := 0; i < 1+rng.Intn(10); i++ {
		mix.buf.Push(buffer.Input{
			Seq:        uint64(i),
			CapturedAt: float64(i), // distinct ages keep both tie-breaks total
			JobID:      rng.Intn(numJobs),
		})
	}
	return mix
}

// checkQuantisedChoice verifies the bounded-regret and separation properties
// for one mix and returns the per-mix error band for aggregation.
func checkQuantisedChoice(mix quantMix) error {
	dHW := EnergySJF{}.Select(mix.app, mix.buf, mix.hw)
	dEX := EnergySJF{}.Select(mix.app, mix.buf, mix.exact)
	if dHW.BufferIndex < 0 || dEX.BufferIndex < 0 {
		return fmt.Errorf("no decision for a non-empty buffer: hw=%+v exact=%+v", dHW, dEX)
	}

	// Exact E[S] of every schedulable job, and the exact optimum.
	exES := map[int]float64{}
	best := math.Inf(1)
	for _, id := range mix.buf.JobIDs() {
		es := ExpectedService(mix.app.JobByID(id), mix.exact, nil)
		exES[id] = es
		if es < best {
			best = es
		}
	}

	// Every per-task estimate is within ±maxErr of exact, so E[S] (a convex
	// combination) is too, and a quantised argmin swap can cost at most the
	// two-sided band (1+ε)/(1−ε) in exact E[S].
	band := (1 + mix.maxErr) / (1 - mix.maxErr)
	if got := exES[dHW.JobID]; got > best*band*(1+1e-12) {
		return fmt.Errorf("quantised choice job %d has exact E[S] %g; exact optimum %g exceeds the ±%.2f%% band (factor %g)",
			dHW.JobID, got, best, 100*mix.maxErr, band)
	}

	// Separation: when every alternative is outside the band, quantisation
	// cannot reorder the argmin — the decisions must agree exactly.
	separated := true
	for id, es := range exES {
		if id != dEX.JobID && es <= best*band {
			separated = false
			break
		}
	}
	// (ExpectedS legitimately differs between the estimators; the choice —
	// job and buffered input — must not.)
	if separated && (dHW.JobID != dEX.JobID || dHW.BufferIndex != dEX.BufferIndex) {
		return fmt.Errorf("separated mix (band %g) still diverged: hw=%+v exact=%+v", band, dHW, dEX)
	}
	return nil
}

// TestEnergySJFQuantisedChoiceAcrossTemperature sweeps 25–50 °C (including
// the 42 °C design point the paper quotes its ≤ 5.5 % figure at) and many
// random mixes per temperature.
func TestEnergySJFQuantisedChoiceAcrossTemperature(t *testing.T) {
	allB := map[int]bool{}
	var sumErr, sumDesign float64
	var nErr, nDesign int
	for _, tempC := range []float64{faults.MinTempC, 30, 35, 40, 42, 45, faults.MaxTempC} {
		for seed := int64(0); seed < 120; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(tempC)))
			mix := quantisedMix(rng, tempC)
			if err := checkQuantisedChoice(mix); err != nil {
				t.Fatalf("tempC=%g seed=%d: %v", tempC, seed, err)
			}
			for b := range mix.bValues {
				allB[b] = true
			}
			for k, exS := range mix.exact.se2e {
				rel := math.Abs(mix.hw.se2e[k]-exS) / exS
				sumErr += rel
				nErr++
				if tempC == 42 {
					sumDesign += rel
					nDesign++
				}
				// Worst single sample over 25–50 °C: the two-sided ADC
				// quantisation limit plus exponent-factor drift (§5.1).
				if rel > 0.15 {
					t.Fatalf("tempC=%g: per-task Se2e error %.4f exceeds the 15%% quantisation bound", tempC, rel)
				}
			}
		}
	}
	if mean := sumDesign / float64(nDesign); mean > 0.055 {
		t.Errorf("design-point (42°C) mean Se2e error = %.4f, want ≤ 0.055", mean)
	}
	if mean := sumErr / float64(nErr); mean > 0.075 {
		t.Errorf("25–50°C mean Se2e error = %.4f, want ≤ 0.075", mean)
	}
	if len(allB) != 8 {
		t.Errorf("sweep exercised %d of 8 fractional-exponent b-values (%v); the property ran on too narrow a code range", len(allB), allB)
	}
	t.Logf("Se2e error: design-point mean %.4f, range mean %.4f over %d samples, all 8 b-values covered",
		sumDesign/float64(nDesign), sumErr/float64(nErr), nErr)
}
