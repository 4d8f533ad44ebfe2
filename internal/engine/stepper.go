package engine

import "context"

// Stepper is the time-advance strategy: it owns the main loop, choosing
// step lengths and committing the clock, while delegating all physics to
// Machine.Step. Implementations must call, per committed step, in order:
// m.Hook(i), m.Step(dt), the clock advance, m.EndStep(dt).
type Stepper interface {
	// Run advances m from t=0 to its configured duration, polling ctx for
	// cancellation between steps.
	Run(ctx context.Context, m *Machine) error
}

// ctxCheckStride is how many steps/segments run between cancellation
// checks: frequent enough to cancel within microseconds of wall time,
// rare enough to keep ctx polling off the hot path.
const ctxCheckStride = 4096

// FixedStepper advances in constant StepDt increments — the paper's §6.3
// reference loop.
type FixedStepper struct{}

// Run executes the fixed-increment main loop. Time is stamped as i*dt
// (not accumulated) so the step count is exact and float drift cannot
// shift capture ticks. The clock is advanced to the step's end before the
// observers run, so both steppers deliver OnStep at the same semantic
// instant: the state at the committed step's end.
func (FixedStepper) Run(ctx context.Context, m *Machine) error {
	dt := m.cfg.StepDt
	steps := int(m.cfg.Duration / dt)
	for i := 0; i < steps; i++ {
		if i%ctxCheckStride == 0 && ctx.Err() != nil {
			return m.canceled(ctx)
		}
		m.Hook(i)
		m.now = float64(i) * dt
		m.Step(dt)
		m.now = float64(i+1) * dt
		m.EndStep(dt)
	}
	return nil
}
