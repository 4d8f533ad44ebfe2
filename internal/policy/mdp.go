package policy

import (
	"fmt"

	"quetzal/internal/buffer"
	"quetzal/internal/circuit"
	"quetzal/internal/core"
	"quetzal/internal/model"
	"quetzal/internal/window"
)

// MDP is a finite-horizon value-iteration energy-aware scheduler in the
// style of MDP-based task scheduling for energy-harvesting nodes (arXiv
// 2510.23820): the decision state is the quantized energy-store level × the
// input-buffer occupancy, the actions are the degradable task's quality
// options, and the reward trades delivered quality against predicted buffer
// overflow. Inputs are served FCFS (the MDP chooses *how well* to process,
// the dominant energy lever); per decision the policy evaluates H epochs of
// lookahead with deterministic dynamics:
//
//	store' = clamp(store − E(a) + P_in·S(a))
//	occ'   = clamp(occ − 1 + λ·S(a))   (excess beyond the capacity is the
//	                                    overflow penalty)
//
// Input power is quantized through the hardware module's ADC code (the same
// log-domain levels Algorithm 3 uses) and λ through a fixed grid, so the
// value function is computed once per observed (power, rate) cell and
// memoized — the per-decision cost is a table lookup, with the planning
// cost amortized across the run.
//
// The policy never knowingly overcommits the store: when the chosen
// option's execution energy exceeds the usable store energy and some other
// option fits, the highest-quality fitting option runs instead (pinned by
// TestMDPNeverOvercommitsStore).
type MDP struct {
	app     *model.App
	arrival *window.RateTracker
	module  *circuit.Module
	period  float64

	memo map[mdpKey][]uint8 // state → best option, per quantized (job, power, λ)
}

const (
	mdpHorizon     = 8    // lookahead epochs
	mdpStoreLevels = 12   // energy-store quantization
	mdpLamLevels   = 16   // stored-fraction quantization
	mdpDiscount    = 0.9  // per-epoch discount
	mdpOverflowW   = 2.0  // penalty per predicted overflowed input
	mdpInfeasibleW = 10.0 // penalty for overcommitting the store in-plan
)

// mdpKey identifies one memoized value table.
type mdpKey struct {
	jobID  int
	pin    uint8 // hardware-module ADC code of the input power
	lam    int   // stored-fraction grid cell
	bufCap int
}

// NewMDP builds the MDP strategy for the app. capturePeriod (seconds) sets
// the arrival-rate tracker's clock.
func NewMDP(app *model.App, capturePeriod float64) (*MDP, error) {
	if app == nil {
		return nil, fmt.Errorf("policy: mdp: app is required")
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if capturePeriod <= 0 {
		return nil, fmt.Errorf("policy: mdp: capture period must be positive, got %g", capturePeriod)
	}
	return &MDP{
		app:     app,
		arrival: window.NewRateTracker(window.DefaultArrivalWindow, capturePeriod, 0.5),
		module:  circuit.New(circuit.DefaultConfig()),
		period:  capturePeriod,
		memo:    map[mdpKey][]uint8{},
	}, nil
}

// Name implements core.Controller.
func (m *MDP) Name() string { return MDPName }

// ObserveCapture implements core.Controller.
func (m *MDP) ObserveCapture(stored bool) { m.arrival.Observe(stored) }

// OnJobComplete implements core.Controller (the value function is
// model-based, not learned from feedback).
func (m *MDP) OnJobComplete(core.Feedback) {}

// RatioOps implements core.Controller: the FCFS scan plus the state lookup is
// one ratio per task plus one per option of the degradable task — the same
// order as the Quetzal runtime; the value-iteration itself is memoized per
// quantized (power, λ) cell and amortizes to noise.
func (m *MDP) RatioOps() (int, bool) {
	n, maxOpts := 0, 0
	for _, j := range m.app.Jobs {
		n += len(j.Tasks)
		if di := j.DegradableTask(); di >= 0 && len(j.Tasks[di].Options) > maxOpts {
			maxOpts = len(j.Tasks[di].Options)
		}
	}
	return n + maxOpts, false
}

// ReplaySensitive implements core.ReplaySensitive: decisions read the
// store level, which the lockstep crawl-regime classifier does not freeze.
func (m *MDP) ReplaySensitive() bool { return true }

// NextJob implements core.Controller.
func (m *MDP) NextJob(env core.Env, buf *buffer.Buffer) (core.Decision, bool) {
	if buf.Len() == 0 {
		return core.Decision{BufferIndex: -1, JobID: -1}, false
	}
	in, err := buf.Peek()
	if err != nil {
		return core.Decision{BufferIndex: -1, JobID: -1}, false
	}
	job := m.app.JobByID(in.JobID)
	if job == nil {
		return core.Decision{BufferIndex: -1, JobID: -1}, false
	}
	choice := m.Choose(env, job)
	di, _ := degradableOptions(job)
	dec := core.Decision{
		BufferIndex: 0,
		JobID:       job.ID,
		Options:     make([]int, len(job.Tasks)),
		PredictedS:  serviceAt(job, di, choice, env.InputPower),
	}
	dec.ModelS = dec.PredictedS
	if di >= 0 && choice > 0 {
		dec.Options[di] = choice
		dec.Degraded = true
	}
	return dec, true
}

// Choose returns the quality option the MDP selects for job in env: the
// value-table action at the current (store level, occupancy) state, demoted
// to the highest-quality energy-feasible option when the table's choice
// would overcommit the store and a feasible option exists.
func (m *MDP) Choose(env core.Env, job *model.Job) int {
	di, nOpts := degradableOptions(job)
	if nOpts <= 1 {
		return 0
	}
	pinCode := m.module.CodeForPower(env.InputPower)
	pinQ := m.module.PowerForCode(pinCode)
	frac := m.arrival.StoredFraction()
	lamCell := int(frac * float64(mdpLamLevels))
	if lamCell >= mdpLamLevels {
		lamCell = mdpLamLevels - 1
	}
	cap := env.BufferCap
	if cap < 1 {
		cap = 1
	}
	key := mdpKey{jobID: job.ID, pin: pinCode, lam: lamCell, bufCap: cap}
	table, ok := m.memo[key]
	if !ok {
		lamQ := (float64(lamCell) + 0.5) / float64(mdpLamLevels) / m.period
		table = m.solve(job, di, nOpts, pinQ, lamQ, cap, env.StoreCapacity)
		m.memo[key] = table
	}

	level := storeLevel(env.StoreEnergy, env.StoreCapacity)
	occ := env.BufferLen
	if occ > cap {
		occ = cap
	}
	choice := int(table[level*(cap+1)+occ])

	// Feasibility filter: never overcommit the store when an option fits.
	if energyAt(job, di, choice) > env.StoreEnergy {
		for a := 0; a < nOpts; a++ {
			if energyAt(job, di, a) <= env.StoreEnergy {
				return a // highest-quality fitting option
			}
		}
	}
	return choice
}

// storeLevel quantizes usable store energy into mdpStoreLevels cells.
func storeLevel(energy, capacity float64) int {
	if capacity <= 0 || energy <= 0 {
		return 0
	}
	l := int(energy / capacity * mdpStoreLevels)
	if l >= mdpStoreLevels {
		l = mdpStoreLevels - 1
	}
	return l
}

// solve runs finite-horizon value iteration for one quantized (power, λ)
// cell and returns the greedy action per (store level, occupancy) state.
// All arithmetic is plain float64 on quantized inputs, so the table is a
// pure function of its key — decisions replay bit-identically across
// engines.
func (m *MDP) solve(job *model.Job, di, nOpts int, pinQ, lamQ float64, bufCap int, storeCap float64) []uint8 {
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
