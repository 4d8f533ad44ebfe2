package service

// Admission control, the paper's discipline turned on the service itself.
// Quetzal's Algorithm 2 predicts input-buffer overflow from Little's Law
// (E[N] = λ·E[S]) and degrades work instead of dropping it blindly; quetzald
// predicts whether a new request can clear the admission queue before its
// deadline, and sheds it with 429 + Retry-After — an explicit, retryable
// signal — instead of letting it camp on a worker slot it can never use.
//
// The residence prediction is the queueing estimate W ≈ (N+1)/c · E[S]: a
// newcomer behind N queued-or-running requests on c workers waits roughly
// N/c service times, then needs one more for itself. E[S] is an EWMA over
// executed runs (cache hits are ~free and deliberately excluded). λ is
// tracked the same way from interarrival gaps, giving the Little's-Law
// occupancy prediction λ·E[S] that /metrics exports for operators.

import (
	"math"
	"sync"
	"time"
)

// ewmaAlpha weights new observations; ~10 observations to converge.
const ewmaAlpha = 0.3

// admission is the load-shedding gate. One per server; safe for concurrent
// use.
type admission struct {
	workers  int
	maxQueue int
	now      func() time.Time

	mu      sync.Mutex
	queued  int       // admitted requests not yet released
	ewmaS   float64   // EWMA of executed-run service time, seconds
	ewmaGap float64   // EWMA of interarrival gap, seconds
	lastArr time.Time // previous arrival, for the gap estimate
}

// admissionStats is a snapshot for /metrics and logs.
type admissionStats struct {
	Queued       int
	ServiceEWMA  float64 // seconds
	Lambda       float64 // arrivals/second
	PredictedOcc float64 // Little's Law E[N] = λ·E[S]
}

func newAdmission(workers, maxQueue int, now func() time.Time) *admission {
	return &admission{workers: workers, maxQueue: maxQueue, now: now}
}

// tryAdmit asks to enqueue n new executions under the given deadline. It
// either admits them (caller must release(n) when done) or returns shed
// with a Retry-After hint and the predicted queue residence that justified
// the rejection.
func (a *admission) tryAdmit(n int, deadline time.Duration) (ok bool, retryAfter time.Duration, predicted time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()

	// Track λ on every admission attempt — shed traffic is still offered
	// load, which is exactly what Little's Law wants to know about.
	t := a.now()
	if !a.lastArr.IsZero() {
		gap := t.Sub(a.lastArr).Seconds()
		if a.ewmaGap == 0 {
			a.ewmaGap = gap
		} else {
			a.ewmaGap += ewmaAlpha * (gap - a.ewmaGap)
		}
	}
	a.lastArr = t

	predicted = a.residenceLocked(n)
	switch {
	case a.queued+n > a.maxQueue,
		a.ewmaS > 0 && deadline > 0 && predicted > deadline:
		return false, a.retryHintLocked(predicted, deadline), predicted
	}
	a.queued += n
	return true, 0, predicted
}

// residenceLocked predicts how long the last of n newcomers would wait in
// system: ceil((queued+n)/workers) service times.
func (a *admission) residenceLocked(n int) time.Duration {
	if a.ewmaS <= 0 {
		return 0 // cold start: no estimate yet, admit freely up to maxQueue
	}
	turns := math.Ceil(float64(a.queued+n) / float64(a.workers))
	return time.Duration(turns * a.ewmaS * float64(time.Second))
}

// retryHintLocked sizes the Retry-After hint: long enough for the backlog
// the client would have faced to drain, never less than a second (a shorter
// hint just invites an immediate re-shed).
func (a *admission) retryHintLocked(predicted, deadline time.Duration) time.Duration {
	hint := predicted - deadline
	if floor := time.Duration(a.ewmaS * float64(time.Second)); hint < floor {
		hint = floor
	}
	if hint < time.Second {
		hint = time.Second
	}
	return hint.Round(time.Second)
}

// release returns n admitted slots.
func (a *admission) release(n int) {
	a.mu.Lock()
	a.queued -= n
	if a.queued < 0 {
		a.queued = 0
	}
	a.mu.Unlock()
}

// observe folds one executed run's wall time into the service-time EWMA.
func (a *admission) observe(d time.Duration) {
	s := d.Seconds()
	a.mu.Lock()
	if a.ewmaS == 0 {
		a.ewmaS = s
	} else {
		a.ewmaS += ewmaAlpha * (s - a.ewmaS)
	}
	a.mu.Unlock()
}

// snapshot reports the gate's current estimates.
func (a *admission) snapshot() admissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := admissionStats{Queued: a.queued, ServiceEWMA: a.ewmaS}
	if a.ewmaGap > 0 {
		st.Lambda = 1 / a.ewmaGap
	}
	st.PredictedOcc = st.Lambda * st.ServiceEWMA
	return st
}
