package window

import "fmt"

// RateTracker estimates the input-arrival rate λ (inputs stored per second)
// from a window of capture outcomes, as described in paper §3.3/§5.1: "the
// system tracks the number of times an input was stored in the input buffer
// from a previous window of captured inputs."
//
// Captures happen at a fixed period; λ is the stored fraction divided by the
// capture period.
// Burst sensitivity: a long window smooths λ across activity gaps, but a
// buffer overflow builds within seconds of a burst starting — long before a
// 256-capture window reflects it. The tracker therefore also maintains a
// short sub-window over the most recent captures and reports the more
// conservative (larger) of the two estimates. The device cost is one more
// bit-vector with its 1-counter, the same §5.1 machinery.
const burstWindow = 16

type RateTracker struct {
	win           *BitWindow
	burst         *BitWindow
	capturePeriod float64 // seconds between captures
	prior         float64 // fraction assumed before any observation
}

// NewRateTracker builds a tracker over windowSize captures at the given
// capture period in seconds. prior is the stored-fraction assumed until the
// first capture is observed.
func NewRateTracker(windowSize int, capturePeriod, prior float64) *RateTracker {
	if capturePeriod <= 0 {
		panic(fmt.Sprintf("window: capture period must be positive, got %g", capturePeriod))
	}
	if prior < 0 || prior > 1 {
		panic(fmt.Sprintf("window: prior must be in [0,1], got %g", prior))
	}
	bw := burstWindow
	if bw > windowSize {
		bw = windowSize
	}
	return &RateTracker{win: New(windowSize), burst: New(bw), capturePeriod: capturePeriod, prior: prior}
}

// Observe records whether a captured input was stored in the buffer.
func (r *RateTracker) Observe(stored bool) {
	r.win.Push(stored)
	r.burst.Push(stored)
}

// StoredFraction returns the conservative (larger) of the long-window and
// burst-window stored fractions.
func (r *RateTracker) StoredFraction() float64 {
	f := r.win.Fraction(r.prior)
	if b := r.burst.Fraction(r.prior); b > f {
		return b
	}
	return f
}

// Lambda returns the estimated arrival rate λ in inputs per second.
func (r *RateTracker) Lambda() float64 { return r.StoredFraction() / r.capturePeriod }

// ProbTracker estimates a task's execution probability from a window of job
// completions (paper §4.1): the fraction of recently completed jobs in which
// the task ran.
type ProbTracker struct {
	win   *BitWindow
	prior float64
}

// NewProbTracker builds a tracker over windowSize job completions. prior is
// the probability assumed until the first completion is observed; the paper
// profiles each task once up front, so a prior of 1 (always runs) is the
// conservative default used by the runtime.
func NewProbTracker(windowSize int, prior float64) *ProbTracker {
	if prior < 0 || prior > 1 {
		panic(fmt.Sprintf("window: prior must be in [0,1], got %g", prior))
	}
	return &ProbTracker{win: New(windowSize), prior: prior}
}

// Observe records whether the task executed for a completed job.
func (p *ProbTracker) Observe(executed bool) { p.win.Push(executed) }

// Probability returns the task's estimated execution probability.
func (p *ProbTracker) Probability() float64 { return p.win.Fraction(p.prior) }
