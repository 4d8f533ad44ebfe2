package engine

// maxSegment caps event-driven segments so that left-endpoint power
// sampling over the (1 s-gridded, linearly interpolated) trace stays close
// to the fixed-increment integral.
const maxSegment = 0.25

// minSegment guards against zero-length progress.
const minSegment = 1e-6

// segment returns the largest dt that contains no discrete event.
func segment(m *Machine, end float64) float64 {
	dt := maxSegment
	limit := func(v float64) {
		if v < dt {
			dt = v
		}
	}
	limit(end - m.now)

	// Next camera tick: land exactly on it; when the tick fires within
	// this very step, bound the segment by the capture pipeline's own
	// length so the step charges it accurately.
	if m.nextCapture > m.now {
		limit(m.nextCapture - m.now)
	} else {
		limit(m.app.CaptureTexe)
	}
	// Observer horizons (e.g. the next timeline row boundary): land the
	// segment end exactly on them so periodic observers sample on grid.
	for _, o := range m.observers {
		if h := o.Horizon(m.now); h > m.now {
			limit(h - m.now)
		}
	}

	on := m.store.On()
	mcu := m.cfg.Profile.MCU

	switch {
	case m.captures.Len() > 0:
		// Capture pipeline progress at CapturePexe from the priority path.
		limit(m.captures.Front().remaining)
		limit(m.storeDepletion(m.app.CapturePexe))
	case !on:
		// Browned out: nothing but harvest until the store reaches VOn.
		limit(m.storeRestart())
	case m.restoreLeft > 0:
		limit(m.restoreLeft)
		limit(m.storeDepletion(mcu.RestorePower))
	case m.exec != nil:
		e := m.exec
		task := e.job.Tasks[e.taskIdx]
		opt := task.Options[e.options[e.taskIdx]]
		if e.aborted {
			limit(minSegment) // abort handled on the next step
			break
		}
		if task.Atomic && !e.started && m.store.UsableEnergy() < m.atomicEnergyBudget(opt) {
			// Waiting for the reservation: charge until it is met.
			limit(m.storeCharge(m.atomicEnergyBudget(opt) - m.store.UsableEnergy()))
			break
		}
		limit(e.remaining)
		limit(m.storeDepletion(opt.Pexe))
		if m.cfg.Checkpoint == PeriodicCheckpoint && !task.Atomic {
			// Do not skip a checkpoint boundary within one segment.
			progressed := e.ckptAt - e.remaining
			next := m.cfg.CheckpointInterval - progressed
			if next > 0 {
				limit(next)
			} else {
				limit(minSegment)
			}
		}
	case m.buf.Len() > 0:
		// Scheduler invocation: effectively instantaneous.
		limit(minSegment)
	default:
		// Idle until the next capture; the capture bound above covers it.
		limit(m.storeDepletion(mcu.IdlePower))
	}

	if dt < minSegment {
		dt = minSegment
	}
	return dt
}

// harvestRate returns the net power the store gains from the environment at
// the segment start (post-efficiency, pre-leakage).
func (m *Machine) harvestRate() float64 {
	p := m.cfg.Power.Power(m.now) * m.cfg.Store.HarvestEfficiency
	return p - m.cfg.Store.LeakagePower
}

// storeDepletion returns the time until the store would cross the brown-out
// floor while drawing drawPower against the current harvest. It returns a
// large value when the store is charging on net.
func (m *Machine) storeDepletion(drawPower float64) float64 {
	net := m.harvestRate() - drawPower
	if net >= 0 {
		return maxSegment
	}
	usable := m.store.UsableEnergy()
	if usable <= 0 {
		return minSegment
	}
	return usable / -net
}

// storeCharge returns the time to accumulate the given energy at the
// current net harvest rate (large when not charging).
func (m *Machine) storeCharge(energy float64) float64 {
	if energy <= 0 {
		return minSegment
	}
	net := m.harvestRate()
	if net <= 0 {
		return maxSegment
	}
	return energy / net
}

// storeRestart returns the time until a browned-out store reaches the VOn
// restart threshold at the current harvest.
func (m *Machine) storeRestart() float64 {
	cfg := m.cfg.Store
	eOn := 0.5 * cfg.Capacitance * cfg.VOn * cfg.VOn
	deficit := eOn - m.store.Energy()
	return m.storeCharge(deficit)
}
