package policy

import (
	"bytes"
	"testing"

	"quetzal/internal/device"
	"quetzal/internal/energy"
	"quetzal/internal/model"
)

// referenceSolve is MDP.solve as it was before the transition tables: every
// epoch recomputes each (state, action) pair's reward and successor. It is
// the oracle TestSolveMatchesReference holds the table-driven solve to.
func referenceSolve(job *model.Job, di, nOpts int, pinQ, lamQ float64, bufCap int, storeCap float64) []uint8 {
	if storeCap <= 0 {
		storeCap = 1e-3 // degenerate store: plan over a nominal 1 mJ span
	}
	nStates := mdpStoreLevels * (bufCap + 1)
	value := make([]float64, nStates)
	next := make([]float64, nStates)
	best := make([]uint8, nStates)

	// Per-action service time, energy and quality reward at this power.
	svc := make([]float64, nOpts)
	nrg := make([]float64, nOpts)
	qual := make([]float64, nOpts)
	for a := 0; a < nOpts; a++ {
		svc[a] = serviceAt(job, di, a, pinQ)
		nrg[a] = energyAt(job, di, a)
		qual[a] = 1 - float64(a)/float64(nOpts)
	}

	for h := 0; h < mdpHorizon; h++ {
		for level := 0; level < mdpStoreLevels; level++ {
			e := (float64(level) + 0.5) / mdpStoreLevels * storeCap
			for occ := 0; occ <= bufCap; occ++ {
				idx := level*(bufCap+1) + occ
				bestVal := 0.0
				bestAct := uint8(0)
				for a := 0; a < nOpts; a++ {
					gain := pinQ * svc[a]
					// Store transition.
					ne := e - nrg[a] + gain
					if ne < 0 {
						ne = 0
					}
					if ne > storeCap {
						ne = storeCap
					}
					// Occupancy transition: one served, λ·S arriving.
					nb := float64(occ) - 1 + lamQ*svc[a]
					if nb < 0 {
						nb = 0
					}
					overflow := 0.0
					if nb > float64(bufCap) {
						overflow = nb - float64(bufCap)
						nb = float64(bufCap)
					}
					r := qual[a] - mdpOverflowW*overflow
					if nrg[a] > e+gain {
						// In-plan infeasibility: the store cannot supply the
						// option even counting harvest during the run.
						r -= mdpInfeasibleW
					}
					nl := storeLevel(ne, storeCap)
					no := int(nb + 0.5)
					if no > bufCap {
						no = bufCap
					}
					val := r + mdpDiscount*value[nl*(bufCap+1)+no]
					if a == 0 || val > bestVal {
						bestVal = val
						bestAct = uint8(a)
					}
				}
				next[idx] = bestVal
				best[idx] = bestAct
			}
		}
		value, next = next, value
	}
	return best
}

// TestSolveMatchesReference pins the table-driven solve bit for bit to the
// reference over the whole quantized key space the policy can reach: every
// job with a degradable task, every ADC code, every λ cell, small to large
// buffers, and degenerate and real stores. One MDP serves the whole grid,
// with the buffer size changing on every solve, so stale scratch shows too.
func TestSolveMatchesReference(t *testing.T) {
	app := device.Apollo4().PersonDetectionApp()
	m, err := NewMDP(app, 1)
	if err != nil {
		t.Fatal(err)
	}
	store := energy.NewStore(energy.DefaultConfig())
	storeCaps := []float64{-1, 0, 1e-4, store.UsableCapacity()}
	solves := 0
	for _, job := range app.Jobs {
		di, nOpts := degradableOptions(job)
		if nOpts <= 1 {
			continue // Choose never solves a job without options
		}
		for code := 0; code < 256; code++ {
			pinQ := m.module.PowerForCode(uint8(code))
			for cell := 0; cell < mdpLamLevels; cell++ {
				lamQ := (float64(cell) + 0.5) / float64(mdpLamLevels) / m.period
				for _, storeCap := range storeCaps {
					for _, bufCap := range []int{16, 1, 4} {
						got := m.solve(job, di, nOpts, pinQ, lamQ, bufCap, storeCap)
						want := referenceSolve(job, di, nOpts, pinQ, lamQ, bufCap, storeCap)
						if !bytes.Equal(got, want) {
							t.Fatalf("job %s code %d λ cell %d store %g buffer %d: table\n%v\nwant\n%v",
								job.Name, code, cell, storeCap, bufCap, got, want)
						}
						solves++
					}
				}
			}
		}
	}
	if solves == 0 {
		t.Fatal("the app has no degradable job; the grid exercises nothing")
	}
}

// TestSolveAllocatesOnlyItsTable: once the scratch has grown, a solve
// allocates exactly the table it returns for the memo.
func TestSolveAllocatesOnlyItsTable(t *testing.T) {
	app := device.Apollo4().PersonDetectionApp()
	m, err := NewMDP(app, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range app.Jobs {
		di, nOpts := degradableOptions(job)
		if nOpts <= 1 {
			continue
		}
		m.solve(job, di, nOpts, 0.01, 0.5, 16, 0.1)
		if allocs := testing.AllocsPerRun(50, func() {
			m.solve(job, di, nOpts, 0.01, 0.5, 4, 0.1)
		}); allocs != 1 {
			t.Errorf("job %s: solve allocates %.1f times, want 1 (the memoized table)", job.Name, allocs)
		}
	}
}
