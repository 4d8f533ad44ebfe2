package window

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRateTrackerLambda(t *testing.T) {
	r := NewRateTracker(8, 1.0, 0.5)
	// Before observations, prior applies: λ = 0.5 / 1s.
	if got := r.Lambda(); got != 0.5 {
		t.Errorf("prior Lambda = %g, want 0.5", got)
	}
	// 3 of 4 captures stored at 1 capture/s → λ = 0.75/s.
	for _, stored := range []bool{true, true, true, false} {
		r.Observe(stored)
	}
	if got := r.Lambda(); got != 0.75 {
		t.Errorf("Lambda = %g, want 0.75", got)
	}
}

func TestRateTrackerCapturePeriodScaling(t *testing.T) {
	// Every capture stored: λ is one input per capture period.
	for _, c := range []struct{ period, want float64 }{{2, 0.5}, {4, 0.25}} {
		r := NewRateTracker(4, c.period, 0)
		r.Observe(true)
		r.Observe(true)
		if got := r.Lambda(); got != c.want {
			t.Errorf("period %g s: Lambda = %g, want %g", c.period, got, c.want)
		}
	}
}

func TestRateTrackerPanics(t *testing.T) {
	cases := []func(){
		func() { NewRateTracker(8, 0, 0.5) },
		func() { NewRateTracker(8, -1, 0.5) },
		func() { NewRateTracker(8, 1, -0.1) },
		func() { NewRateTracker(8, 1, 1.1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestProbTrackerPriorAndConvergence(t *testing.T) {
	p := NewProbTracker(16, 1.0)
	if got := p.Probability(); got != 1.0 {
		t.Errorf("prior Probability = %g, want 1", got)
	}
	// Observe the task running on 1 of every 4 completions.
	for i := 0; i < 16; i++ {
		p.Observe(i%4 == 0)
	}
	if got := p.Probability(); got != 0.25 {
		t.Errorf("Probability = %g, want 0.25", got)
	}
}

func TestProbTrackerPriorValidation(t *testing.T) {
	for _, prior := range []float64{-0.01, 1.01} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewProbTracker(prior=%g) did not panic", prior)
				}
			}()
			NewProbTracker(8, prior)
		}()
	}
}

// Property: λ is non-negative, and never exceeds 1/capturePeriod (a device
// cannot store inputs faster than it captures them).
func TestPropertyLambdaBounded(t *testing.T) {
	f := func(seed int64, periodRaw uint8, n uint8) bool {
		period := float64(periodRaw%10) + 0.5
		r := NewRateTracker(32, period, 1)
		for i := 0; i < int(n); i++ {
			r.Observe(seed>>uint(i%60)&1 == 0)
		}
		l := r.Lambda()
		return l >= 0 && l <= 1/period+1e-12 && !math.IsNaN(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: probability tracked over a window equals the set fraction of the
// window suffix, so it always lies in [0,1].
func TestPropertyProbabilityBounded(t *testing.T) {
	f := func(bitsRaw uint64, n uint8) bool {
		p := NewProbTracker(64, 0.5)
		for i := 0; i < int(n); i++ {
			p.Observe(bitsRaw>>uint(i%64)&1 == 1)
		}
		prob := p.Probability()
		return prob >= 0 && prob <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
