// Package invariant is the runtime correctness layer of the simulator: a
// checker the engine's machine owns and calls directly after every
// committed step — each fixed increment, each event-driven segment, and
// each step the crawl replay commits out of line — and once at end-of-run.
// It asserts the physical and accounting invariants the paper's E[S]/E[N]
// predictions rest on:
//
//   - energy-store bounds: stored energy stays within [0, capacity];
//   - energy conservation: stored = initial + harvested − consumed − leaked
//     within a small tolerance, at every step (a drift catches any code
//     path that mutates the store without accounting for the energy);
//   - buffer bounds: occupancy ∈ [0, capacity];
//   - monotonic simulated time; and
//   - end-of-run accounting identities, most importantly input
//     conservation: every arrival is either IBO-dropped, departed
//     (sojourn-counted), aborted, or still buffered when the run ends.
//
// Violations are collected (bounded), not panicked, so a sweep over
// thousands of configurations reports every broken run instead of dying on
// the first. The simulator enables the checker by default; hot benchmark
// paths opt out via sim.ChecksOff.
package invariant

import (
	"errors"
	"fmt"

	"quetzal/internal/metrics"
)

// Config tunes a Checker.
type Config struct {
	// EnergyTolJ bounds the permitted energy-conservation drift in joules.
	// The default 1e-6 J covers float64 rounding over tens of millions of
	// store operations (each operation contributes ≤ ~1 ulp of the running
	// totals, ~1e-14 J at the joule scale the simulator works in) with
	// orders of magnitude of headroom, while remaining far below any real
	// accounting bug (the smallest modeled energy, one idle 1 ms step,
	// is 3e-8 J; typical bugs shift millijoules).
	EnergyTolJ float64
	// MaxRecorded bounds how many violations are kept (default 8); the
	// total count is tracked regardless.
	MaxRecorded int

	// MeasPerSampleJ, when positive, is the configured per-ADC-sample
	// measurement energy (faults.Spec.MeasCost). Finish then holds the
	// exact identity MeasJoules == MeasSamples × MeasPerSampleJ — the
	// engine records INTENDED energy per sample, so any double charge (or
	// dropped charge) breaks the identity by at least one sample's energy.
	MeasPerSampleJ float64
	// DropoutWindows lists harvester dropout [start, end) intervals
	// (faults.Spec.Windows). A step fully inside a window must harvest
	// exactly 0 J — bitwise, since Harvest(0, dt) adds exactly 0.
	DropoutWindows [][2]float64
}

// StoreState snapshots the energy store's live accounting.
type StoreState struct {
	Energy   float64 // currently stored, joules
	Capacity float64 // maximum storable energy (½CV_max²)
	// Lifetime counters maintained by the store itself.
	Harvested float64
	Consumed  float64
	Leaked    float64
}

// StepState is one per-step observation.
type StepState struct {
	Now       float64
	Store     StoreState
	BufferLen int
	BufferCap int
}

// FinalState is the end-of-run observation.
type FinalState struct {
	StepState
	Results metrics.Results
	// PendingCaptures counts frames still inside the capture pipeline when
	// the run ended (captured but not yet offered to the buffer).
	PendingCaptures int
}

// Violation is one recorded invariant breach.
type Violation struct {
	Name   string  // stable identifier, e.g. "energy-conservation"
	Time   float64 // simulated time of detection
	Detail string
}

// Error renders the violation as one line.
func (v Violation) Error() string {
	return fmt.Sprintf("invariant %s at t=%.3fs: %s", v.Name, v.Time, v.Detail)
}

// Checker accumulates violations over one run. The zero value is not
// usable; construct with New. Not safe for concurrent use (the simulator
// is single-threaded, like the device it models).
type Checker struct {
	cfg        Config
	steps      int
	total      int // violations seen, including unrecorded ones
	violations []Violation

	prevNow float64
	// baseline is the conserved quantity E − H + C + L, equal to the
	// store's energy before the first harvest. Captured on the first
	// observation so SetFraction-style initial conditions are absorbed.
	baseline  float64
	haveBase  bool
	maxBufLen int
	maxDriftJ float64
	// prevHarvested tracks the lifetime harvest counter across steps for
	// the dropout-window zero-harvest check.
	prevHarvested float64
}

// New builds a checker.
func New(cfg Config) *Checker {
	if cfg.EnergyTolJ <= 0 {
		cfg.EnergyTolJ = 1e-6
	}
	if cfg.MaxRecorded <= 0 {
		cfg.MaxRecorded = 8
	}
	return &Checker{cfg: cfg, prevNow: -1}
}

// Steps, MaxDriftJ and PeakBufferLen summarize what the checker observed.
// They are the contract of the engine's replay-parity tests: a run whose
// crawl replay commits steps out of line must leave the checker with
// exactly the step count, maximum drift and peak occupancy of the same run
// stepped one segment at a time.

// Steps returns how many observations the checker has processed.
func (c *Checker) Steps() int { return c.steps }

// MaxDriftJ reports the largest energy-conservation drift observed, even
// when it stayed within tolerance — useful for calibrating EnergyTolJ.
func (c *Checker) MaxDriftJ() float64 { return c.maxDriftJ }

// PeakBufferLen reports the highest buffer occupancy observed.
func (c *Checker) PeakBufferLen() int { return c.maxBufLen }

func (c *Checker) record(name string, now float64, format string, args ...any) {
	c.total++
	if len(c.violations) < c.cfg.MaxRecorded {
		c.violations = append(c.violations, Violation{
			Name: name, Time: now, Detail: fmt.Sprintf(format, args...),
		})
	}
}

// Step checks the per-step invariants against one observation. The
// simulator calls it after every step (fixed-increment) or segment
// (event-driven), and for every step its crawl replay commits, passing an
// observation it fills in place; st is only read during the call.
func (c *Checker) Step(st *StepState) {
	c.steps++
	tol := c.cfg.EnergyTolJ

	// Simulated time must never move backwards.
	prevNow := c.prevNow
	if st.Now < prevNow {
		c.record("monotonic-time", st.Now, "time went backwards: %.9f after %.9f", st.Now, prevNow)
	}
	c.prevNow = st.Now

	// Store bounds: [0, capacity] within tolerance.
	s := &st.Store
	if s.Energy < -tol || s.Energy > s.Capacity+tol {
		c.record("store-bounds", st.Now, "stored %.9g J outside [0, %.9g]", s.Energy, s.Capacity)
	}

	// Conservation: E − H + C + L is constant over the whole run (its
	// value is the initial stored energy). Any unaccounted mutation of the
	// store shows up as drift.
	base := s.Energy - s.Harvested + s.Consumed + s.Leaked
	if !c.haveBase {
		c.baseline = base
		c.haveBase = true
	} else {
		drift := base - c.baseline
		if drift < 0 {
			drift = -drift
		}
		if drift > c.maxDriftJ {
			c.maxDriftJ = drift
		}
		if drift > tol {
			c.record("energy-conservation", st.Now,
				"stored %.9g J drifts %.3g J from initial %.9g + harvested %.9g − consumed %.9g − leaked %.9g",
				s.Energy, drift, c.baseline, s.Harvested, s.Consumed, s.Leaked)
		}
	}

	// Buffer occupancy within [0, capacity].
	if st.BufferLen < 0 || st.BufferLen > st.BufferCap {
		c.record("buffer-bounds", st.Now, "occupancy %d outside [0, %d]", st.BufferLen, st.BufferCap)
	}
	if st.BufferLen > c.maxBufLen {
		c.maxBufLen = st.BufferLen
	}

	// Harvester dropout: a step lying fully inside a declared dropout
	// window samples 0 W at every left endpoint, so the lifetime harvest
	// counter must not move at all — exactly, not within tolerance.
	if len(c.cfg.DropoutWindows) > 0 && c.steps > 1 {
		for _, w := range c.cfg.DropoutWindows {
			if prevNow >= w[0] && st.Now <= w[1] {
				if d := s.Harvested - c.prevHarvested; d != 0 {
					c.record("dropout-harvest", st.Now,
						"harvested %.12g J inside dropout window [%g, %g)", d, w[0], w[1])
				}
				break
			}
		}
	}
	c.prevHarvested = s.Harvested
}

// Finish checks the end-of-run identities and returns every violation the
// run produced (per-step ones included), joined into a single error; nil
// when the run was clean.
func (c *Checker) Finish(fs FinalState) error {
	c.Step(&fs.StepState) // final state obeys the per-step invariants too
	r := fs.Results

	// Input conservation: every arrival that was offered to the buffer is
	// exactly one of: dropped at the boundary (IBO), fully departed
	// (sojourn-counted), abandoned by the watchdog, or still buffered at
	// the end of the run. Inputs stay in their buffer slot while a job
	// runs, so in-flight work is covered by BufferLen.
	accounted := r.IBODropsInteresting + r.IBODropsOther +
		r.SojournCount + r.JobAborts + fs.BufferLen
	if r.Arrivals != accounted {
		c.record("input-conservation", fs.Now,
			"arrivals %d ≠ IBO-lost %d + departed %d + aborted %d + buffered %d",
			r.Arrivals, r.IBODropsInteresting+r.IBODropsOther,
			r.SojournCount, r.JobAborts, fs.BufferLen)
	}

	// Capture conservation: a captured frame is missed, still in the
	// pipeline, or finished the pipeline — and only finished frames that
	// differed can arrive, so arrivals are bounded by finished frames.
	finished := r.Captures - r.CaptureMisses - fs.PendingCaptures
	if finished < 0 {
		c.record("capture-conservation", fs.Now,
			"captures %d < misses %d + pipeline %d", r.Captures, r.CaptureMisses, fs.PendingCaptures)
	} else if r.Arrivals > finished {
		c.record("capture-conservation", fs.Now,
			"arrivals %d exceed frames through the pipeline %d", r.Arrivals, finished)
	}

	// Energy feasibility: the load cannot consume more than was ever
	// available (initial store + everything harvested).
	if c.haveBase && r.ConsumedJoules > r.HarvestedJoules+c.baseline+c.cfg.EnergyTolJ {
		c.record("energy-feasibility", fs.Now,
			"consumed %.6g J exceeds harvested %.6g + initial %.6g",
			r.ConsumedJoules, r.HarvestedJoules, c.baseline)
	}

	// The store's own lifetime counters must agree with the results copy.
	if r.HarvestedJoules != 0 || r.ConsumedJoules != 0 {
		if d := r.HarvestedJoules - fs.Store.Harvested; d > c.cfg.EnergyTolJ || d < -c.cfg.EnergyTolJ {
			c.record("stats-mismatch", fs.Now,
				"results harvested %.9g ≠ store harvested %.9g", r.HarvestedJoules, fs.Store.Harvested)
		}
	}

	// Measurement-energy conservation: the engine records the intended
	// per-sample energy on every charge, so the total is EXACTLY samples ×
	// per-sample cost (the 1e-12 J slack covers float accumulation order,
	// orders of magnitude below one sample's charge). A sample charged
	// twice — or never — breaks this by at least MeasPerSampleJ.
	if c.cfg.MeasPerSampleJ > 0 {
		want := float64(r.MeasSamples) * c.cfg.MeasPerSampleJ
		if d := r.MeasJoules - want; d > 1e-12 || d < -1e-12 {
			c.record("meas-conservation", fs.Now,
				"meas energy %.12g J ≠ %d samples × %.12g J", r.MeasJoules, r.MeasSamples, c.cfg.MeasPerSampleJ)
		}
	}

	// Per-field accounting identities on the results themselves.
	if err := r.Check(); err != nil {
		c.record("results-check", fs.Now, "%v", err)
	}

	return c.Err()
}

// Err joins all recorded violations into one error (nil when clean). When
// more violations occurred than were recorded, the overflow is noted.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	errs := make([]error, 0, len(c.violations)+1)
	for _, v := range c.violations {
		errs = append(errs, v)
	}
	if c.total > len(c.violations) {
		errs = append(errs, fmt.Errorf("invariant: %d further violations not recorded", c.total-len(c.violations)))
	}
	return errors.Join(errs...)
}
