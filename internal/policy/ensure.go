package policy

import (
	"fmt"
	"sort"

	"quetzal/internal/buffer"
	"quetzal/internal/core"
	"quetzal/internal/model"
	"quetzal/internal/window"
)

// EnSuRe is a k-fault backup-window scheduler in the style of the EnSuRe
// real-time scheduler: pending inputs get pseudo-deadlines (capture time
// plus the time the buffer takes to fill at the tracked arrival rate),
// primaries run earliest-deadline-first, and each deadline reserves a
// backup window — slack sized to re-execute the k largest high-quality
// executions among the inputs due by then (BB overloading: the k backup
// slots share one reserved region rather than each fault reserving its
// own). An input runs at high quality only while its primary finishes
// before its backup window opens; once the reserved slack would be eaten,
// the input runs degraded — trading quality for the guarantee that a
// burst of k re-executions still meets the remaining deadlines.
//
// PlanBackups/FaultFreeFeasible expose the window arithmetic for direct
// property testing (reserved slack ≥ the k largest re-execution times;
// fault-free schedules meet every deadline).
type EnSuRe struct {
	app     *model.App
	arrival *window.RateTracker
	period  float64
	k       int

	// Scratch reused across decisions: the pending items, the planner's
	// deadline-ordered copy, its k-largest set, the windows and the
	// decision's options.
	items, sorted []EnSuReItem
	top           []float64
	windows       []BackupWindow
	opts          []int
}

// DefaultEnSuReFaults is the registry's k: the backup slack covers up to
// two high-quality re-executions per window.
const DefaultEnSuReFaults = 2

// maxDeadlineSlack caps the pseudo-deadline horizon when the tracked
// arrival rate approaches zero (an idle window means no overflow pressure;
// an unbounded deadline would lose float precision for nothing).
const maxDeadlineSlack = 1e6 // seconds

// EnSuReItem is one schedulable unit handed to the backup planner.
type EnSuReItem struct {
	ID       int     // caller's identifier (buffer index)
	Deadline float64 // absolute completion deadline, seconds
	Exec     float64 // high-quality (re-)execution time, seconds
}

// BackupWindow is the reserved re-execution region for one item.
type BackupWindow struct {
	ID       int
	Start    float64 // deadline − reserved slack
	Deadline float64
	Exec     float64 // the item's high-quality execution time
}

// NewEnSuRe builds the strategy. capturePeriod (seconds) sets the
// arrival-rate tracker's clock; k is the number of faults the backup
// windows must absorb (k ≥ 1).
func NewEnSuRe(app *model.App, capturePeriod float64, k int) (*EnSuRe, error) {
	if app == nil {
		return nil, fmt.Errorf("policy: ensure: app is required")
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if capturePeriod <= 0 {
		return nil, fmt.Errorf("policy: ensure: capture period must be positive, got %g", capturePeriod)
	}
	if k < 1 {
		return nil, fmt.Errorf("policy: ensure: k must be at least 1, got %d", k)
	}
	return &EnSuRe{
		app:     app,
		arrival: window.NewRateTracker(window.DefaultArrivalWindow, capturePeriod, 0.5),
		period:  capturePeriod,
		k:       k,
	}, nil
}

// Name implements core.Controller.
func (e *EnSuRe) Name() string { return EnSuReName }

// ObserveCapture implements core.Controller.
func (e *EnSuRe) ObserveCapture(stored bool) { e.arrival.Observe(stored) }

// OnJobComplete implements core.Controller (deadlines are re-derived every
// decision).
func (e *EnSuRe) OnJobComplete(core.Feedback) {}

// RatioOps implements core.Controller: one ratio per task (the service
// estimates) plus one per pending input (the deadline sort is comparisons,
// the window arithmetic one multiply-add each).
func (e *EnSuRe) RatioOps() (int, bool) {
	n := 0
	for _, j := range e.app.Jobs {
		n += len(j.Tasks)
	}
	return n + e.k, false
}

// ReplaySensitive implements core.ReplaySensitive: decisions read only the
// arrival rate and input power, never the store level, so the crawl replay
// may stay engaged.
func (e *EnSuRe) ReplaySensitive() bool { return false }

// NextJob implements core.Controller: earliest pseudo-deadline first, degraded
// once the primary would run into its backup window.
func (e *EnSuRe) NextJob(env core.Env, buf *buffer.Buffer) (core.Decision, bool) {
	n := buf.Len()
	if n == 0 {
		return core.Decision{BufferIndex: -1, JobID: -1}, false
	}

	// Pseudo-deadline slack: the time the buffer takes to fill at the
	// tracked arrival rate — past it, holding this input risks an IBO.
	slack := maxDeadlineSlack
	if lam := e.arrival.Lambda(); lam > 0 {
		if s := float64(env.BufferCap) / lam; s < slack {
			slack = s
		}
	}

	e.items = e.items[:0]
	selected := -1
	var selJob *model.Job
	for i := 0; i < n; i++ {
		in, err := buf.At(i)
		if err != nil {
			continue
		}
		job := e.app.JobByID(in.JobID)
		if job == nil {
			continue
		}
		it := EnSuReItem{
			ID:       i,
			Deadline: in.CapturedAt + slack,
			Exec:     serviceAt(job, -1, 0, env.InputPower),
		}
		e.items = append(e.items, it)
		if selected < 0 || it.Deadline < e.items[indexOf(e.items, selected)].Deadline {
			selected = i
			selJob = job
		}
	}
	if selected < 0 {
		return core.Decision{BufferIndex: -1, JobID: -1}, false
	}

	e.windows, e.sorted, e.top = planBackups(e.windows[:0], e.sorted[:0], e.top[:0], e.items, e.k)
	start := 0.0
	for _, w := range e.windows {
		if w.ID == selected {
			start = w.Start
			break
		}
	}

	di, nOpts := degradableOptions(selJob)
	choice := 0
	if di >= 0 && nOpts > 1 && env.Now+serviceAt(selJob, di, 0, env.InputPower) > start {
		choice = nOpts - 1 // primary would eat the reserved backup slack
	}
	e.opts = zeroed(e.opts, len(selJob.Tasks))
	dec := core.Decision{
		BufferIndex: selected,
		JobID:       selJob.ID,
		Options:     e.opts,
		PredictedS:  serviceAt(selJob, di, choice, env.InputPower),
	}
	dec.ModelS = dec.PredictedS
	if choice > 0 {
		dec.Options[di] = choice
		dec.Degraded = true
	}
	return dec, true
}

// indexOf finds the items slot whose ID is id (items are appended in
// buffer order, but stale-tag skips can shift positions).
func indexOf(items []EnSuReItem, id int) int {
	for i, it := range items {
		if it.ID == id {
			return i
		}
	}
	return 0
}

// PlanBackups computes each item's backup window. Items are taken in
// deadline-ascending order (ties by ID); item i's reserved slack is the sum
// of the min(k, i+1) largest high-quality execution times among the items
// due no later than it, and its backup window starts at deadline − slack.
// The input slice is not modified.
func PlanBackups(items []EnSuReItem, k int) []BackupWindow {
	out, _, _ := planBackups(nil, nil, nil, items, k)
	return out
}

// planBackups is PlanBackups appending to out, with sorted and top as
// reusable scratch (all three passed with length 0); it returns the three
// slices for reuse. The deadline order is a stable insertion sort (items
// are one buffer's inputs), so items with equal keys keep their input
// order.
func planBackups(out []BackupWindow, sorted []EnSuReItem, top []float64, items []EnSuReItem, k int) ([]BackupWindow, []EnSuReItem, []float64) {
	if k < 1 {
		k = 1
	}
	before := func(a, b EnSuReItem) bool {
		if a.Deadline != b.Deadline {
			return a.Deadline < b.Deadline
		}
		return a.ID < b.ID
	}
	for _, it := range items {
		sorted = append(sorted, it)
		j := len(sorted) - 1
		for ; j > 0 && before(it, sorted[j-1]); j-- {
			sorted[j] = sorted[j-1]
		}
		sorted[j] = it
	}
	// top holds the k largest Exec over the prefix, ascending.
	for _, it := range sorted {
		// Insert it.Exec, keeping the k largest.
		pos := sort.SearchFloat64s(top, it.Exec)
		if len(top) < k {
			top = append(top, 0)
			copy(top[pos+1:], top[pos:])
			top[pos] = it.Exec
		} else if pos > 0 {
			copy(top[:pos-1], top[1:pos])
			top[pos-1] = it.Exec
		}
		reserve := 0.0
		for _, v := range top {
			reserve += v
		}
		out = append(out, BackupWindow{ID: it.ID, Start: it.Deadline - reserve, Deadline: it.Deadline, Exec: it.Exec})
	}
	return out, sorted, top
}

// FaultFreeFeasible reports whether the deadline-ordered primaries, run
// back-to-back from now, each finish before their backup window opens —
// the admission condition under which the fault-free schedule provably
// meets every deadline while keeping k re-executions' worth of slack in
// reserve.
func FaultFreeFeasible(items []EnSuReItem, k int, now float64) bool {
	t := now
	for _, w := range PlanBackups(items, k) {
		t += w.Exec
		if t > w.Start {
			return false
		}
	}
	return true
}
