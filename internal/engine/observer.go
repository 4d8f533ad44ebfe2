package engine

import (
	"fmt"
	"io"

	"quetzal/internal/invariant"
)

// Observer is per-step instrumentation. Observers never mutate the machine;
// they read its accessors after each committed step and once at end of run.
type Observer interface {
	// OnStep runs after every committed step, with the machine's clock at
	// the step's end (both steppers).
	OnStep(m *Machine, dt float64)
	// Horizon returns the next future instant this observer needs a step
	// boundary at, or a value ≤ now when it has none. The event stepper
	// caps segments so they land exactly on observer horizons; the fixed
	// stepper ignores them (its grid is already fixed).
	Horizon(now float64) float64
	// OnFinish runs once after the run completes; a non-nil error fails
	// the run (the invariant checker reports violations this way).
	OnFinish(m *Machine) error
}

// TimelineWriter is an Observer that emits one CSV row per interval of
// simulated time: time, input power, store energy, buffer occupancy,
// device phase. For plotting and debugging.
type TimelineWriter struct {
	w        io.Writer
	interval float64
	next     float64
	wrote    bool
}

// NewTimelineWriter builds a timeline observer writing to w every interval
// simulated seconds (0 → 1 s).
func NewTimelineWriter(w io.Writer, interval float64) *TimelineWriter {
	if interval == 0 {
		interval = 1
	}
	return &TimelineWriter{w: w, interval: interval}
}

// OnStep writes a row whenever the clock has reached the next boundary.
func (t *TimelineWriter) OnStep(m *Machine, _ float64) {
	if m.Now() < t.next {
		return
	}
	if !t.wrote {
		fmt.Fprintln(t.w, "t_s,power_mw,store_mj,occupancy,state")
		t.wrote = true
	}
	fmt.Fprintf(t.w, "%.3f,%.3f,%.3f,%d,%s\n",
		m.Now(), m.InputPower()*1e3, m.Store().Energy()*1e3, m.Buffer().Len(), m.Phase())
	t.next += t.interval
}

// Horizon asks the event stepper to land a boundary on the next row time.
func (t *TimelineWriter) Horizon(float64) float64 { return t.next }

// OnFinish is a no-op; the timeline has no end-of-run row.
func (t *TimelineWriter) OnFinish(*Machine) error { return nil }

// InvariantObserver feeds every step to an invariant.Checker and verifies
// the end-of-run accounting identities. Registering one marks the run as
// verified, replacing the machine's own fallback Results.Check.
//
// Machine.Observe does not add it to the observer list: the machine takes
// the checker over, calls it directly after every committed step with an
// observation filled in place, and keeps the crawl replay engaged by
// checking each replayed step too (see Machine.replayCrawl). Its Observer
// methods serve callers that wrap it in an observer of their own; such a
// wrapper is an ordinary observer and turns the replay off.
type InvariantObserver struct {
	C *invariant.Checker
}

// OnStep checks the per-step invariants against the machine snapshot.
func (o InvariantObserver) OnStep(m *Machine, _ float64) {
	st := m.Snapshot()
	o.C.Step(&st)
}

// Horizon reports no boundary needs.
func (o InvariantObserver) Horizon(float64) float64 { return 0 }

// OnFinish checks the end-of-run identities.
func (o InvariantObserver) OnFinish(m *Machine) error {
	return o.C.Finish(invariant.FinalState{
		StepState:       m.Snapshot(),
		Results:         m.Results(),
		PendingCaptures: m.PendingCaptures(),
	})
}

// FuncObserver adapts plain functions to the Observer interface; nil
// fields behave as no-ops. Tests and ad-hoc metrics collectors use it. Like
// every observer, it turns the crawl replay off, so a no-op FuncObserver is
// the replay-off reference of the replay-parity tests.
type FuncObserver struct {
	Step   func(m *Machine, dt float64)
	Bound  func(now float64) float64
	Finish func(m *Machine) error
}

// OnStep calls Step when set.
func (f FuncObserver) OnStep(m *Machine, dt float64) {
	if f.Step != nil {
		f.Step(m, dt)
	}
}

// Horizon calls Bound when set.
func (f FuncObserver) Horizon(now float64) float64 {
	if f.Bound != nil {
		return f.Bound(now)
	}
	return 0
}

// OnFinish calls Finish when set.
func (f FuncObserver) OnFinish(m *Machine) error {
	if f.Finish != nil {
		return f.Finish(m)
	}
	return nil
}
