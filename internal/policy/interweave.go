package policy

import (
	"fmt"

	"quetzal/internal/buffer"
	"quetzal/internal/core"
	"quetzal/internal/model"
)

// Interweave is a greedy throughput interweaver in the style of
// task-interweaving schedulers for intermittently-powered nodes (arXiv
// 2212.07002 family): whenever any captured input is pending it picks, over
// every (buffered input × quality option) pair, the assignment with the
// smallest end-to-end service time among those the energy budget can
// interleave — execution energy covered by the store plus the harvest that
// arrives while the job runs. Feasible assignments beat infeasible ones;
// within a class, strictly smaller service time wins and ties keep the
// earliest (lowest buffer index, then highest quality), so decisions are
// deterministic. It never idles on a runnable capture: if no assignment is
// energy-feasible it still dispatches the fastest one rather than waiting
// (pinned by TestInterweaveNeverIdles).
type Interweave struct {
	app *model.App
}

// NewInterweave builds the strategy.
func NewInterweave(app *model.App) (*Interweave, error) {
	if app == nil {
		return nil, fmt.Errorf("policy: interweave: app is required")
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return &Interweave{app: app}, nil
}

// Name implements core.Controller.
func (w *Interweave) Name() string { return InterweaveName }

// ObserveCapture implements core.Controller (the interweaver is stateless).
func (w *Interweave) ObserveCapture(bool) {}

// OnJobComplete implements core.Controller.
func (w *Interweave) OnJobComplete(core.Feedback) {}

// RatioOps implements core.Controller: the scan computes one service/energy
// estimate per (job, option) pair.
func (w *Interweave) RatioOps() (int, bool) {
	n := 0
	for _, j := range w.app.Jobs {
		_, nOpts := degradableOptions(j)
		n += len(j.Tasks) * nOpts
	}
	return n, false
}

// ReplaySensitive implements core.ReplaySensitive: feasibility reads the
// store level, which the lockstep crawl-regime classifier does not freeze.
func (w *Interweave) ReplaySensitive() bool { return true }

// NextJob implements core.Controller.
func (w *Interweave) NextJob(env core.Env, buf *buffer.Buffer) (core.Decision, bool) {
	n := buf.Len()
	if n == 0 {
		return core.Decision{BufferIndex: -1, JobID: -1}, false
	}
	bestIdx, bestOpt := -1, 0
	var bestJob *model.Job
	bestS, bestFeasible := 0.0, false
	for i := 0; i < n; i++ {
		in, err := buf.At(i)
		if err != nil {
			continue
		}
		job := w.app.JobByID(in.JobID)
		if job == nil {
			continue
		}
		di, nOpts := degradableOptions(job)
		for a := 0; a < nOpts; a++ {
			s := serviceAt(job, di, a, env.InputPower)
			feasible := energyAt(job, di, a) <= env.StoreEnergy+env.InputPower*s
			if bestIdx >= 0 {
				if bestFeasible && !feasible {
					continue
				}
				if feasible == bestFeasible && s >= bestS {
					continue
				}
			}
			bestIdx, bestOpt, bestJob, bestS, bestFeasible = i, a, job, s, feasible
		}
	}
	if bestIdx < 0 {
		return core.Decision{BufferIndex: -1, JobID: -1}, false
	}
	di, _ := degradableOptions(bestJob)
	dec := core.Decision{
		BufferIndex: bestIdx,
		JobID:       bestJob.ID,
		Options:     make([]int, len(bestJob.Tasks)),
		PredictedS:  bestS,
	}
	dec.ModelS = bestS
	if di >= 0 && bestOpt > 0 {
		dec.Options[di] = bestOpt
		dec.Degraded = true
	}
	return dec, true
}
