package engine

import (
	"context"
	"math"

	"quetzal/internal/faults"
	"quetzal/internal/trace"
)

// LockstepStepper is the event-driven stepper; StepperFor returns it for
// both EventDriven and Lockstep. Each iteration picks the largest
// event-free segment (segment), applies the Machine.Step transition over
// it, and accumulates the clock. On top of that loop sits the crawl replay:
// when the machine enters a fixed-point regime in which every segment is
// provably minSegment and every step repeats the same float arithmetic (see
// replayCrawl), it commits those steps out of line as constant-addend
// updates instead of full segment/step dispatch. The replay only commits
// values the per-segment path would produce, so results and event streams
// are the same with it on or off (pinned by the golden parity test and the
// differential oracle in internal/simgen).
type LockstepStepper struct{}

// Run executes the event-driven main loop with the crawl replay spliced in.
func (LockstepStepper) Run(ctx context.Context, m *Machine) error {
	end := m.cfg.Duration
	for i := 0; m.now < end; {
		if i%ctxCheckStride == 0 && ctx.Err() != nil {
			return m.canceled(ctx)
		}
		if n := m.replayCrawl(end); n > 0 {
			// The replay commits steps in bulk; keep the index honest and
			// re-check cancellation here since the stride check above may
			// now be skipped over.
			i += n
			if ctx.Err() != nil {
				return m.canceled(ctx)
			}
			continue
		}
		m.Hook(i)
		dt := segment(m, end)
		m.Step(dt)
		m.now += dt
		m.EndStep(dt)
		i++
	}
	m.now = end
	return nil
}

// crawlWindowMargin shrinks constant-power windows so float drift between
// the replay clock and the trace's own phase arithmetic can never reach a
// waveform edge; boundary neighborhoods always go through the normal path.
const crawlWindowMargin = 1e-9

// replayCrawl advances the machine through a brown-out capture crawl: the
// store pinned at its floor, a pending capture draining every harvested
// joule within the step it arrives, the segment chooser returning exactly
// minSegment. This regime dominates starved runs (>95% of all segments on
// the square-wave bench workload), and inside it each step's float
// arithmetic is a closed form of the previous step's, so the loop below
// commits the same values Step would — expression by expression, in the
// same order, bit-identical by induction — without segment choice, interface
// dispatch, or store calls. When the power trace is additionally
// bitwise-constant over a window (constantWindow) the regime is a fixed
// point and steps reduce to five constant-addend additions.
//
// It returns the number of steps committed, 0 when the regime does not
// apply; the caller resumes the normal loop either way, so every boundary
// (capture tick, restart threshold, regulation clamp, capture completion,
// sub-step tails) is handled by the ordinary segment/step path.
func (m *Machine) replayCrawl(limit float64) int {
	// Regime gate. Each condition either defines the crawl or excludes a
	// side effect the replay does not reproduce: UsableEnergy()==0 is what
	// forces segment()==minSegment; a pending on/off transition would logf
	// and run checkpoint policy; observers and the StepHook must see the
	// machine after every step; leakage adds a per-step drain Step applies
	// and this loop does not; CapturePexe<=0 flips DrawPriority into its
	// free-progress branch; a replay-sensitive controller reads state the
	// replay does not freeze. The invariant checker is not an observer and
	// does not close the gate: the loop below hands it every replayed step
	// (checkReplayed), so its verdict and statistics match the per-segment
	// path step for step.
	//
	// The fault layer needs no extra gate: every realism effect fires from
	// a site the crawl regime excludes. Measurement charges, temperature
	// updates, and stuck-bit corruption happen only in invokeController,
	// which cannot run while a capture is pending (captures.Len() > 0 is
	// the first gate condition, and Step's capture branch returns before
	// the controller dispatch); task-fault injection happens only at task
	// completion inside runTask, equally unreachable here. Dropout windows
	// are a property of the power trace itself, which the replay samples
	// every probe step and whose constantWindow case below bounds the
	// fixed-point fast path away from window edges.
	if m.captures.Len() == 0 ||
		m.store.UsableEnergy() > 0 ||
		m.wasOn != m.store.On() ||
		m.replaySensitive ||
		m.StepHook != nil ||
		len(m.observers) != 0 ||
		m.cfg.Store.LeakagePower != 0 ||
		m.app.CapturePexe <= 0 {
		return 0
	}
	const dt = minSegment
	stop := limit
	if m.nextCapture < stop {
		stop = m.nextCapture
	}
	now := m.now
	if !(now < stop) {
		return 0
	}

	st := m.store
	stored, harvested, consumed := st.ReplayLedger()
	eOff := st.Floor()
	eOn := st.RestartThreshold()
	eMax := st.Capacity()
	on := st.On()
	eff := m.cfg.Store.HarvestEfficiency
	pexe := m.app.CapturePexe
	need := pexe * dt // DrawPriority's need for a full minSegment step
	c := m.captures.Front()
	rem := c.remaining
	oi := float64(m.buf.Len()) * dt // occupancy-integral addend (buffer untouched)
	occInt := m.res.OccupancyIntegral
	tr := m.cfg.Power
	chk := m.chk
	if chk != nil {
		// Constant over the replay: no leakage, buffer untouched.
		m.chkSt.Store.Leaked = st.Leaked()
		m.chkSt.BufferLen = m.buf.Len()
	}
	n := 0

loop:
	for now < stop {
		p := tr.Power(now)
		// segment() returns minSegment only while storeDepletion sees a
		// net-negative rate; same expression, same floats.
		if p*eff-pexe >= 0 {
			break
		}
		// One step of Machine.Step's capture branch, symbolically. Every
		// expression mirrors Harvest/DrawPriority verbatim so the committed
		// floats are the ones the real call chain would produce.
		pre := stored
		e := 0.0
		s1 := stored
		if p > 0 {
			e = p * dt * eff
			if e > eMax-stored {
				break // regulation clamp: normal path accounts wasted energy
			}
			s1 = stored + e
			if !on && s1 >= eOn {
				break // restart threshold: normal path logs the transition
			}
		}
		var ca, d float64
		s2 := s1
		avail := s1 - eOff
		if avail > 0 {
			if need <= avail {
				break // full-rate capture progress: not a crawl
			}
			ca = avail
			d = dt * (avail / need)
			s2 = eOff
		}
		if rem < dt {
			break // sub-step capture tail: Step draws for use=remaining there
		}
		nr := rem - d
		if nr <= dt {
			break // completion margin: let the normal path finish the frame
		}
		stored = s2
		harvested += e
		consumed += ca
		occInt += oi
		now += dt
		rem = nr
		n++
		if chk != nil {
			m.checkReplayed(now, stored, harvested, consumed)
		}

		// Fixed point: the step returned the store bit-identical to its
		// pre-step value (everything harvested drained back to the floor in
		// the same step). If the trace is also bitwise-constant over a
		// window, every further step repeats exactly these addends; replay
		// them without re-probing.
		if s2 == pre {
			if cp, until, ok := constantWindow(tr, now); ok && cp == p {
				cstop := stop
				if until < cstop {
					cstop = until
				}
				for now < cstop {
					nr = rem - d
					if nr <= dt {
						break loop
					}
					harvested += e
					consumed += ca
					occInt += oi
					now += dt
					rem = nr
					n++
					if chk != nil {
						m.checkReplayed(now, stored, harvested, consumed)
					}
				}
			}
		}
	}

	if n > 0 {
		st.SetReplayLedger(stored, harvested, consumed)
		c.remaining = rem
		m.res.OccupancyIntegral = occInt
		m.now = now
		m.replaySteps += n
	}
	return n
}

// checkReplayed hands the invariant checker one replayed step: the state
// Snapshot would read after the step the per-segment path commits, taken
// from the replay's registers. Leakage and occupancy were set before the
// loop; capacities when the checker registered.
func (m *Machine) checkReplayed(now, stored, harvested, consumed float64) {
	st := &m.chkSt
	st.Now = now
	st.Store.Energy = stored
	st.Store.Harvested = harvested
	st.Store.Consumed = consumed
	m.chk.Step(st)
}

// constantWindow reports a window [t, until) over which tr.Power returns the
// bitwise-constant value p. ok=false means no such window is known: sampled
// traces interpolate, so even visually flat regions are not bitwise-constant,
// and unknown trace types are never assumed constant.
func constantWindow(tr trace.PowerTrace, t float64) (p, until float64, ok bool) {
	switch s := tr.(type) {
	case trace.Constant:
		return s.P, math.Inf(1), true
	case trace.SquareWave:
		if s.Period <= 0 {
			return s.High, math.Inf(1), true
		}
		phase := math.Mod(t, s.Period)
		if phase < 0 {
			phase += s.Period
		}
		// Same edge expression as SquareWave.Power, so the classification
		// here is the one the trace itself would make at t.
		edge := s.Duty * s.Period
		var left float64
		if phase < edge {
			p, left = s.High, edge-phase
		} else {
			p, left = s.Low, s.Period-phase
		}
		left -= crawlWindowMargin
		if left <= 0 {
			return 0, 0, false
		}
		return p, t + left, true
	case trace.Scaled:
		pb, until, ok := constantWindow(s.Base, t)
		if !ok {
			return 0, 0, false
		}
		return pb * s.Factor, until, true
	case faults.Dropout:
		lo, hi, inside := s.WindowAt(t)
		if inside {
			// Inside a dropout window the trace is bitwise 0 up to the
			// window's end; stay clear of the edge like the square wave.
			until := hi - crawlWindowMargin
			if until <= t {
				return 0, 0, false
			}
			return 0, until, true
		}
		pb, until, ok := constantWindow(s.Base, t)
		if !ok {
			return 0, 0, false
		}
		if !math.IsInf(lo, 1) {
			// Outside, the base value holds only until the next window
			// opens; bound the fast path away from that edge too.
			if edge := lo - crawlWindowMargin; edge < until {
				until = edge
			}
			if until <= t {
				return 0, 0, false
			}
		}
		return pb, until, true
	}
	return 0, 0, false
}
