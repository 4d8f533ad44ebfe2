// Package engine is the simulation core the sim facade runs on, split into
// three orthogonal layers so that new scenarios, new time-advance
// strategies, and new instrumentation compose instead of multiplying:
//
//   - Machine is the pure device state machine: energy store draw/charge/
//     restart, brownout and checkpoint policy, the always-on capture
//     pipeline, input-buffer arrivals, and controller invocation. It knows
//     how to advance across one step of any length (Step), but nothing
//     about how step lengths are chosen.
//
//   - Stepper is the pluggable time-advance strategy. FixedStepper is the
//     paper's §6.3 reference (constant 1 ms increments); LockstepStepper,
//     the one event-driven loop, advances in variable piecewise-linear
//     segments bounded by the next discrete event, replays brown-out crawl
//     regimes in closed form, and runs ~50–200× faster with statistically
//     matching results. Both drive the same Machine transition, so the
//     physics cannot diverge between engines by construction.
//
//   - Observer is the instrumentation pipeline: registered observers are
//     invoked from one site after every committed step (EndStep) and once
//     at end of run. Timeline CSV writing and the internal/invariant
//     checker are observers; the hot path pays zero allocations when no
//     observer is registered.
//
// Package sim wraps this package in a compatibility facade (sim.Config,
// sim.Simulator) that keeps the original public API; new code that wants
// to compose its own steppers or observers can use this package directly.
package engine

import "fmt"

// Kind selects the time-advance strategy (the Stepper implementation).
type Kind int

const (
	// FixedIncrement advances in constant StepDt steps — the paper's §6.3
	// simulator and the reference semantics.
	FixedIncrement Kind = iota
	// EventDriven advances in variable-length segments bounded by the next
	// discrete event (capture tick, activity completion, store threshold
	// crossing, observer horizon). Within such a segment the step dynamics
	// are piecewise-linear, so the same Step transition applies exactly;
	// runs are typically 50–200× faster with statistically matching
	// results (validated in internal/simgen's differential oracle). When
	// no observer is attached, brown-out crawl regimes — a store pinned at
	// the floor with a pending capture, advancing in minSegment steps — are
	// replayed as constant-addend updates; results are bit-identical with
	// or without the replay. Use it for large sweeps; use FixedIncrement
	// for the paper-faithful reference.
	EventDriven
	// Lockstep selects the same stepper as EventDriven. It stays a
	// distinct value because its name is part of run ids and store keys
	// (experiments.RunKey). See DESIGN.md §13.
	Lockstep
)

// String names the engine kind. The public name of this type through the
// sim facade is EngineKind, which the unknown-value form preserves.
func (k Kind) String() string {
	switch k {
	case FixedIncrement:
		return "fixed-increment"
	case EventDriven:
		return "event-driven"
	case Lockstep:
		return "lockstep"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// StepperFor returns the stepper implementing the given kind: the one
// event-driven stepper for EventDriven and Lockstep, else the
// fixed-increment reference (unknown values included, mirroring the
// facade's historical switch).
func StepperFor(k Kind) Stepper {
	switch k {
	case EventDriven, Lockstep:
		return LockstepStepper{}
	}
	return FixedStepper{}
}

// CheckpointPolicy selects the intermittent-computing progress model.
type CheckpointPolicy int

const (
	// JITCheckpoint saves state just in time before the power failure:
	// progress is fully preserved, and only the restore cost is paid on
	// resume (the paper's simulator, citing [8, 9, 47, 61, 64]).
	JITCheckpoint CheckpointPolicy = iota
	// NoCheckpoint loses the current task's progress on every power
	// failure: the task restarts from scratch after the restore.
	NoCheckpoint
	// PeriodicCheckpoint saves progress every CheckpointInterval seconds
	// of execution, paying the restore-equivalent cost per checkpoint; a
	// power failure rolls back to the last checkpoint.
	PeriodicCheckpoint
)

// String names the policy.
func (p CheckpointPolicy) String() string {
	switch p {
	case JITCheckpoint:
		return "jit"
	case NoCheckpoint:
		return "none"
	case PeriodicCheckpoint:
		return "periodic"
	default:
		return fmt.Sprintf("CheckpointPolicy(%d)", int(p))
	}
}
