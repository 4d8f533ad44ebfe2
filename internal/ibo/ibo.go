// Package ibo implements Quetzal's IBO-detection and reaction engine
// (paper §4.2, Algorithm 2), completed with the queueing-theoretic
// stability condition the algorithm needs to act early.
//
// Detection has two parts:
//
//  1. The burst check, Algorithm 2 verbatim: the expected arrivals during
//     the scheduled job, λ·E[S], must not exceed the free buffer space
//     (Little's Law over the job's horizon).
//
//  2. The utilization check: Little's Law in steady state says the queue
//     diverges — guaranteeing an eventual overflow no matter how much
//     space is free today — whenever the total work per arriving input
//     exceeds the interarrival time, i.e. when
//
//     ρ = λ · Σ_jobs reach(job) · E[S](job) ≥ 1
//
//     where reach(job) is the probability an arriving input eventually
//     needs that job (1 for the entry job, the tracked spawn probability
//     for follow-up jobs). The paper's hardware/sim task costs are
//     multi-second, so its burst check fires with room to spare; with
//     sub-second tasks the burst check alone degenerates to a
//     full-buffer trigger (CatNap), and the utilization check is what
//     preserves the published behaviour.
//
// Reaction resolves a quality assignment for the whole spawn chain,
// leaves first: each job takes the highest-quality option that keeps ρ
// below 1 given the qualities already resolved downstream. Degradation
// therefore lands on the task where it buys the most sustainable
// throughput (typically the radio) before touching classifier quality,
// exactly the "degrade only as much as required" contract of §4.2. If no
// assignment stabilises the queue, every job runs its lowest-S_e2e option
// "in order to reduce E[N]".
//
// A decision runs on every scheduling point, so it allocates nothing: a
// Scratch holds the per-app tables (spawn edges, the leaves-first order)
// and the per-call ones (reach probabilities, E[S] per job and option, the
// plan), all indexed by job position in App.Jobs.
package ibo

import (
	"quetzal/internal/model"
	"quetzal/internal/sched"
)

// Input bundles what one engine evaluation needs.
type Input struct {
	App *model.App
	Est sched.Estimator
	// Lambda is the tracked input arrival rate (inputs/second).
	Lambda float64
	// FreeSlots is buffer_limit − current_occupancy.
	FreeSlots int
	// Capacity is buffer_limit. The utilization check is gated on the
	// queue actually building (occupancy ≥ 20 % of capacity): a diverging
	// arrival/service balance only matters once the buffer's slack can no
	// longer absorb the remaining burst, and sub-capacity occupancy is
	// exactly that slack.
	Capacity int
	// Correction is the PID output added to E[S] predictions (§4.3).
	Correction float64
	// SpawnProb returns the tracked probability that the given job's
	// completion spawns its follow-up job. Ignored for jobs that spawn
	// nothing. Nil means 1 (conservative).
	SpawnProb func(jobID int) float64
}

// Decision is the engine's output for one scheduled job.
type Decision struct {
	// IBOPredicted reports whether an overflow was predicted with every
	// job at its highest quality.
	IBOPredicted bool
	// Averted reports whether some quality assignment cleared both checks.
	Averted bool
	// OptionIdx is the selected option for the scheduled job's degradable
	// task (0 = highest quality).
	OptionIdx int
	// ExpectedS is the scheduled job's E[S] at the chosen quality,
	// including the PID correction.
	ExpectedS float64
}

// Scratch is the engine's reusable working memory. The zero value is ready
// to use. A Scratch serves one goroutine, and the App it last decided for
// must not change while it is reused.
type Scratch struct {
	// Per-app tables, rebuilt when the App changes.
	app    *model.App
	spawn  []int // position of each job's spawn target; -1 for none
	degr   []int // each job's degradable task index; -1 for none
	order  []int // job positions, spawn targets before their spawners
	entry  int   // position of the entry job; -1 if it is missing
	stride int   // memo row width: the most options any task offers

	// Per-call tables.
	gated bool      // occupancy below the utilization gate
	reach []float64 // probability an arriving input needs each job
	plan  []int     // option per job for its degradable task
	es    []float64 // jobES memo, row per job, column per option
	known []bool    // which es entries are filled
}

// Decide runs the engine for the scheduled job, which must be one of
// in.App.Jobs.
func (s *Scratch) Decide(job *model.Job, in Input) Decision {
	fullOK, _ := s.resolvePlan(&in)
	pos := s.position(job)

	esBest := s.jobES(&in, pos, 0)
	if !burstOverflow(&in, esBest) && fullOK {
		// No overflow at full quality: run the job undegraded.
		return Decision{ExpectedS: esBest}
	}
	d := Decision{IBOPredicted: true}

	di := s.degr[pos]
	if di < 0 {
		// No degradable task: the prediction stands, quality is fixed.
		d.ExpectedS = esBest
		return d
	}
	// Escalate the scheduled job past the planned option until the burst
	// check clears, preferring the highest quality that does.
	for opt := s.plan[pos]; opt < len(job.Tasks[di].Options); opt++ {
		if es := s.jobES(&in, pos, opt); !burstOverflow(&in, es) {
			d.OptionIdx = opt
			d.ExpectedS = es
			// The imminent (burst) overflow is averted at this option;
			// long-run stability is the plan's concern.
			d.Averted = true
			return d
		}
	}
	// Nothing clears the burst check: lowest S_e2e reduces E[N].
	d.OptionIdx = s.cheapestOpt(&in, pos)
	d.ExpectedS = s.jobES(&in, pos, d.OptionIdx)
	return d
}

// burstOverflow is Algorithm 2 line 6: λ·E[S] ≥ free slots.
func burstOverflow(in *Input, es float64) bool {
	return in.Lambda*es >= float64(in.FreeSlots)
}

// jobES returns the E[S] of the job at position pos with its degradable
// task at option opt, memoized for the current call.
func (s *Scratch) jobES(in *Input, pos, opt int) float64 {
	k := pos*s.stride + opt
	if !s.known[k] {
		s.es[k] = expectedService(in, s.app.Jobs[pos], s.degr[pos], opt)
		s.known[k] = true
	}
	return s.es[k]
}

// expectedService returns the job's probability-weighted E[S] with its
// degradable task di at option opt, plus the PID correction, clamped
// non-negative.
func expectedService(in *Input, job *model.Job, di, opt int) float64 {
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

// spawnProb returns the tracked spawn probability for a job.
func (in *Input) spawnProb(jobID int) float64 {
	if in.SpawnProb == nil {
		return 1
	}
	p := in.SpawnProb(jobID)
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// reachProbs fills s.reach: for every job, the probability that an arriving
// input eventually requires it, following spawn edges from the entry job.
// Zero means unreachable.
func (s *Scratch) reachProbs(in *Input) {
	reach := s.reach
	clear(reach)
	if s.entry < 0 {
		return
	}
	reach[s.entry] = 1
	// Spawn chains are acyclic and short; walk until fixpoint.
	for i := 0; i < len(reach); i++ {
		changed := false
		for pos, j := range s.app.Jobs {
			r, to := reach[pos], s.spawn[pos]
			if r == 0 || to < 0 {
				continue
			}
			if contrib := r * in.spawnProb(j.ID); contrib > reach[to] {
				reach[to] = contrib
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// utilization computes ρ = λ · Σ reach(job)·E[S](job@plan), summing in
// App.Jobs order.
func (s *Scratch) utilization(in *Input) float64 {
	total := 0.0
	for pos, r := range s.reach {
		if r == 0 {
			continue
		}
		total += r * s.jobES(in, pos, s.plan[pos])
	}
	if in.Lambda < 0 || total < 0 {
		return 0
	}
	return in.Lambda * total
}

// stable reports whether the current plan keeps the queue stable. Below the
// occupancy gate the check passes trivially: the buffer still has slack to
// absorb a finite burst even if ρ ≥ 1.
func (s *Scratch) stable(in *Input) bool {
	return s.gated || s.utilization(in) < 1
}

// resolvePlan starts a call on in and picks the chain-wide quality
// assignment into s.plan: jobs are visited leaves-first (deepest spawn
// first) and each takes the highest-quality option that keeps ρ < 1 given
// what is already resolved. fullOK reports that full quality is already
// stable (the plan is all zeros); ok, that a stable plan exists. When none
// does, every degradable job is pinned to its lowest-S_e2e option.
func (s *Scratch) resolvePlan(in *Input) (fullOK, ok bool) {
	s.begin(in)
	if s.stable(in) {
		return true, true // full quality is sustainable
	}
	// Start from the most degraded state, then raise each job (leaves
	// first) to the best quality that keeps the system stable.
	for _, pos := range s.order {
		if s.degr[pos] >= 0 {
			s.plan[pos] = s.cheapestOpt(in, pos)
		}
	}
	if !s.stable(in) {
		return false, false // even fully degraded the queue diverges
	}
	for _, pos := range s.order {
		di := s.degr[pos]
		if di < 0 {
			continue
		}
		keep := s.plan[pos]
		for opt := 0; opt < len(s.app.Jobs[pos].Tasks[di].Options); opt++ {
			s.plan[pos] = opt
			if s.stable(in) {
				keep = opt
				break
			}
		}
		s.plan[pos] = keep
	}
	return false, true
}

// cheapestOpt returns the option index minimising the E[S] of the job at
// position pos, which has a degradable task.
func (s *Scratch) cheapestOpt(in *Input, pos int) int {
	n := len(s.app.Jobs[pos].Tasks[s.degr[pos]].Options)
	best, bestES := 0, s.jobES(in, pos, 0)
	for opt := 1; opt < n; opt++ {
		if es := s.jobES(in, pos, opt); es < bestES {
			best, bestES = opt, es
		}
	}
	return best
}

// begin binds the Scratch to in.App and resets the per-call tables.
func (s *Scratch) begin(in *Input) {
	if s.app != in.App || len(s.spawn) != len(in.App.Jobs) {
		s.bind(in.App)
	}
	occupancy := in.Capacity - in.FreeSlots
	s.gated = in.Capacity > 0 && occupancy*5 < in.Capacity
	clear(s.plan)
	clear(s.known)
	s.reachProbs(in)
}

// bind builds the per-app tables and sizes the per-call ones.
func (s *Scratch) bind(app *model.App) {
	n := len(app.Jobs)
	s.app = app
	s.spawn = make([]int, n)
	s.degr = make([]int, n)
	s.stride = 1
	for pos, j := range app.Jobs {
		s.spawn[pos] = -1
		if j.SpawnJobID != model.NoSpawn {
			s.spawn[pos] = indexOf(app, j.SpawnJobID)
		}
		s.degr[pos] = j.DegradableTask()
		for _, t := range j.Tasks {
			s.stride = max(s.stride, len(t.Options))
		}
	}
	s.entry = indexOf(app, app.EntryJobID)
	s.order = leavesFirst(s.spawn, s.entry)
	s.reach = make([]float64, n)
	s.plan = make([]int, n)
	s.es = make([]float64, n*s.stride)
	s.known = make([]bool, n*s.stride)
}

// position returns the index of job in the bound App's Jobs.
func (s *Scratch) position(job *model.Job) int {
	for pos, j := range s.app.Jobs {
		if j == job {
			return pos
		}
	}
	panic("ibo: the scheduled job " + job.Name + " is not one of Input.App.Jobs")
}

// indexOf returns the position of the job with the given id, or -1.
func indexOf(app *model.App, id int) int {
	for pos, j := range app.Jobs {
		if j.ID == id {
			return pos
		}
	}
	return -1
}

// leavesFirst orders job positions so that spawn targets come before their
// spawners (deepest first), starting from the entry chain; unreachable jobs
// follow in definition order. spawn gives each job's spawn target position.
func leavesFirst(spawn []int, entry int) []int {
	order := make([]int, 0, len(spawn))
	seen := make([]bool, len(spawn))
	var walk func(pos int)
	walk = func(pos int) {
		if pos < 0 || seen[pos] {
			return
		}
		seen[pos] = true
		walk(spawn[pos])
		// Post-order: the spawn target lands before the spawner.
		order = append(order, pos)
	}
	walk(entry)
	for pos := range spawn {
		walk(pos)
	}
	return order
}
