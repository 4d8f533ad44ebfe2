package ibo

// The map-based engine Decide replaced, kept verbatim as a reference: every
// Decision field and plan the allocation-free engine returns must equal
// this one's, bit for bit (TestDecideMatchesReference).

import (
	"quetzal/internal/model"
	"quetzal/internal/sched"
)

// refUtil is ρ = λ·s as the reference computed it.
func refUtil(lambda, meanService float64) float64 {
	if lambda < 0 || meanService < 0 {
		return 0
	}
	return lambda * meanService
}

// refDecision is Decision as the reference returns it, with the plan.
type refDecision struct {
	// IBOPredicted reports whether an overflow was predicted with every
	// job at its highest quality.
	IBOPredicted bool
	// Averted reports whether some quality refAssignment cleared both checks.
	Averted bool
	// OptionIdx is the selected option for the scheduled job's degradable
	// task (0 = highest quality).
	OptionIdx int
	// ExpectedS is the scheduled job's E[S] at the chosen quality,
	// including the PID correction.
	ExpectedS float64
	// Plan is the chain-wide quality refAssignment (jobID → option index for
	// that job's degradable task).
	Plan map[int]int
}

// refDecide is the reference Decide.
func refDecide(job *model.Job, in Input) refDecision {
	plan, _ := refResolvePlan(in)

	esBest := refJobES(in, job, 0)
	esPlanned := refJobES(in, job, refPlannedOpt(plan, job))

	d := refDecision{
		OptionIdx: refPlannedOpt(plan, job),
		ExpectedS: esPlanned,
		Plan:      plan,
	}

	bestOverflow := refBurstOverflow(in, esBest) || !refUtilizationOK(in, refAssignment{})
	if !bestOverflow {
		// No overflow at full quality: run the job undegraded.
		d.OptionIdx = 0
		d.ExpectedS = esBest
		d.Plan = map[int]int{}
		return d
	}
	d.IBOPredicted = true

	// Escalate the scheduled job past the planned option until the burst
	// check clears, preferring the highest quality that does.
	di := job.DegradableTask()
	if di >= 0 {
		for opt := d.OptionIdx; opt < len(job.Tasks[di].Options); opt++ {
			es := refJobES(in, job, opt)
			if !refBurstOverflow(in, es) {
				d.OptionIdx = opt
				d.ExpectedS = es
				// The imminent (burst) overflow is averted at this option;
				// long-run stability is the plan's concern.
				d.Averted = true
				return d
			}
		}
		// Nothing clears the burst check: lowest S_e2e reduces E[N].
		lowest, lowestES := 0, refJobES(in, job, 0)
		for opt := 1; opt < len(job.Tasks[di].Options); opt++ {
			if es := refJobES(in, job, opt); es < lowestES {
				lowest, lowestES = opt, es
			}
		}
		d.OptionIdx = lowest
		d.ExpectedS = lowestES
		return d
	}
	// No degradable task: the prediction stands, quality is fixed.
	d.OptionIdx = 0
	d.ExpectedS = esBest
	return d
}

// burstOverflow is Algorithm 2 line 6: λ·E[S] ≥ free slots.
func refBurstOverflow(in Input, es float64) bool {
	return in.Lambda*es >= float64(in.FreeSlots)
}

// jobES returns the job's probability-weighted E[S] with its degradable
// task at option opt, plus the PID correction, clamped non-negative.
func refJobES(in Input, job *model.Job, opt int) float64 {
	di := job.DegradableTask()
	es := sched.ExpectedService(job, in.Est, func(ti int) int {
		if ti == di {
			return opt
		}
		return 0
	}) + in.Correction
	if es < 0 {
		return 0
	}
	return es
}

// reachProbs computes, for every job, the probability that an arriving
// input eventually requires it, following spawn edges from the entry job.
func refReachProbs(in Input) map[int]float64 {
	reach := map[int]float64{in.App.EntryJobID: 1}
	// Spawn chains are acyclic and short; walk until fixpoint.
	for i := 0; i < len(in.App.Jobs); i++ {
		changed := false
		for _, j := range in.App.Jobs {
			r, ok := reach[j.ID]
			if !ok || j.SpawnJobID == model.NoSpawn {
				continue
			}
			contrib := r * in.spawnProb(j.ID)
			if contrib > reach[j.SpawnJobID] {
				reach[j.SpawnJobID] = contrib
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return reach
}

// refAssignment maps jobID → option index for that job's degradable task.
type refAssignment map[int]int

func refPlannedOpt(a refAssignment, job *model.Job) int {
	if opt, ok := a[job.ID]; ok {
		return opt
	}
	return 0
}

// utilization computes ρ = λ · Σ reach(job)·E[S](job@refAssignment).
func refUtilization(in Input, a refAssignment) float64 {
	reach := refReachProbs(in)
	total := 0.0
	for _, j := range in.App.Jobs {
		r := reach[j.ID]
		if r == 0 {
			continue
		}
		total += r * refJobES(in, j, refPlannedOpt(a, j))
	}
	return refUtil(in.Lambda, total)
}

// utilizationOK reports whether the refAssignment keeps the queue stable.
// Below the occupancy gate the check passes trivially: the buffer still has
// slack to absorb a finite burst even if ρ ≥ 1.
func refUtilizationOK(in Input, a refAssignment) bool {
	occupancy := in.Capacity - in.FreeSlots
	if in.Capacity > 0 && occupancy*5 < in.Capacity {
		return true
	}
	return refUtilization(in, a) < 1
}

// resolvePlan picks the chain-wide quality refAssignment: jobs are visited
// leaves-first (deepest spawn first) and each takes the highest-quality
// option that keeps ρ < 1 given what is already resolved. Returns the plan
// and whether a stable refAssignment exists; when none does, every degradable
// job is pinned to its lowest-S_e2e option.
func refResolvePlan(in Input) (refAssignment, bool) {
	plan := refAssignment{}
	if refUtilizationOK(in, plan) {
		return plan, true // full quality is sustainable
	}

	order := refLeavesFirst(in.App)
	// Start from the most degraded state, then raise each job (leaves
	// first) to the best quality that keeps the system stable.
	for _, j := range order {
		if di := j.DegradableTask(); di >= 0 {
			plan[j.ID] = refCheapestOpt(in, j)
		}
	}
	if !refUtilizationOK(in, plan) {
		return plan, false // even fully degraded the queue diverges
	}
	for _, j := range order {
		di := j.DegradableTask()
		if di < 0 {
			continue
		}
		for opt := 0; opt < len(j.Tasks[di].Options); opt++ {
			trial := refAssignment{}
			for k, v := range plan {
				trial[k] = v
			}
			trial[j.ID] = opt
			if refUtilizationOK(in, trial) {
				plan[j.ID] = opt
				break
			}
		}
	}
	return plan, true
}

// cheapestOpt returns the option index minimising the job's E[S].
func refCheapestOpt(in Input, job *model.Job) int {
	di := job.DegradableTask()
	best, bestES := 0, refJobES(in, job, 0)
	for opt := 1; opt < len(job.Tasks[di].Options); opt++ {
		if es := refJobES(in, job, opt); es < bestES {
			best, bestES = opt, es
		}
	}
	return best
}

// leavesFirst orders jobs so that spawn targets come before their spawners
// (deepest first), starting from the entry chain; unreachable jobs follow in
// definition order.
func refLeavesFirst(app *model.App) []*model.Job {
	var order []*model.Job
	seen := map[int]bool{}
	var walk func(j *model.Job)
	walk = func(j *model.Job) {
		if j == nil || seen[j.ID] {
			return
		}
		seen[j.ID] = true
		if j.SpawnJobID != model.NoSpawn {
			walk(app.JobByID(j.SpawnJobID))
		}
		// Post-order: the spawn target lands before the spawner.
		order = append(order, j)
	}
	walk(app.JobByID(app.EntryJobID))
	for _, j := range app.Jobs {
		walk(j)
	}
	return order
}
