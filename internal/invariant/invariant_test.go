package invariant

import (
	"strings"
	"testing"

	"quetzal/internal/metrics"
)

// cleanStep returns a physically consistent observation at time t.
func cleanStep(t float64) *StepState {
	return &StepState{
		Now: t,
		Store: StoreState{
			Energy:    0.10,
			Capacity:  0.1485,
			Harvested: 0.05 * t,
			Consumed:  0.05*t + 0.0485,
			Leaked:    0,
		},
		BufferLen: 2,
		BufferCap: 10,
	}
}

func TestCleanRunPasses(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 1000; i++ {
		c.Step(cleanStep(float64(i) * 0.001))
	}
	fs := FinalState{
		StepState: *cleanStep(1.0),
		Results: metrics.Results{
			SimSeconds: 1, Captures: 10, Arrivals: 8, InterestingArrivals: 4,
			IBODropsInteresting: 1, IBODropsOther: 1, SojournCount: 3, JobAborts: 1,
			HarvestedJoules: 0.05, ConsumedJoules: 0.0985,
		},
	}
	fs.BufferLen = 2 // 8 arrivals = 2 IBO + 3 departed + 1 aborted + 2 buffered
	if err := c.Finish(fs); err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}
	if c.Steps() != 1001 {
		t.Errorf("steps = %d, want 1001", c.Steps())
	}
	if c.PeakBufferLen() != 2 {
		t.Errorf("peak buffer = %d, want 2", c.PeakBufferLen())
	}
}

func TestEnergyConservationDrift(t *testing.T) {
	c := New(Config{})
	c.Step(cleanStep(0))
	st := cleanStep(0.001)
	st.Store.Energy += 0.01 // energy appears from nowhere
	c.Step(st)
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), "energy-conservation") {
		t.Fatalf("drift not caught: %v", err)
	}
	if c.MaxDriftJ() < 0.009 {
		t.Errorf("max drift %g, want ~0.01", c.MaxDriftJ())
	}
}

func TestDriftWithinToleranceAccepted(t *testing.T) {
	c := New(Config{EnergyTolJ: 1e-6})
	c.Step(cleanStep(0))
	st := cleanStep(0.001)
	st.Store.Energy += 1e-9 // rounding-scale drift
	c.Step(st)
	if err := c.Err(); err != nil {
		t.Fatalf("sub-tolerance drift flagged: %v", err)
	}
}

func TestStoreBounds(t *testing.T) {
	for _, energy := range []float64{-0.001, 0.2} {
		c := New(Config{})
		st := cleanStep(0)
		st.Store.Energy = energy
		c.Step(st)
		if err := c.Err(); err == nil || !strings.Contains(err.Error(), "store-bounds") {
			t.Errorf("energy %g not caught: %v", energy, err)
		}
	}
}

func TestBufferBounds(t *testing.T) {
	for _, occ := range []int{-1, 11} {
		c := New(Config{})
		st := cleanStep(0)
		st.BufferLen = occ
		c.Step(st)
		if err := c.Err(); err == nil || !strings.Contains(err.Error(), "buffer-bounds") {
			t.Errorf("occupancy %d not caught: %v", occ, err)
		}
	}
}

func TestMonotonicTime(t *testing.T) {
	c := New(Config{})
	c.Step(cleanStep(5))
	c.Step(cleanStep(4.9))
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "monotonic-time") {
		t.Fatalf("time reversal not caught: %v", err)
	}
}

func TestInputConservation(t *testing.T) {
	c := New(Config{})
	c.Step(cleanStep(0))
	fs := FinalState{
		StepState: *cleanStep(1),
		Results: metrics.Results{
			SimSeconds: 1, Captures: 10, Arrivals: 8, SojournCount: 3,
		},
	}
	fs.BufferLen = 2 // 8 ≠ 0 + 3 + 0 + 2: three inputs vanished untracked
	err := c.Finish(fs)
	if err == nil || !strings.Contains(err.Error(), "input-conservation") {
		t.Fatalf("vanished inputs not caught: %v", err)
	}
}

func TestCaptureConservation(t *testing.T) {
	c := New(Config{})
	c.Step(cleanStep(0))
	fs := FinalState{
		StepState: *cleanStep(1),
		Results: metrics.Results{
			SimSeconds: 1, Captures: 5, CaptureMisses: 0, Arrivals: 7,
			SojournCount: 7,
		},
	}
	fs.BufferLen = 0
	err := c.Finish(fs)
	if err == nil || !strings.Contains(err.Error(), "capture-conservation") {
		t.Fatalf("excess arrivals not caught: %v", err)
	}
}

func TestEnergyFeasibility(t *testing.T) {
	c := New(Config{})
	c.Step(cleanStep(0))
	fs := FinalState{StepState: *cleanStep(1)}
	fs.Results.SimSeconds = 1
	fs.Results.HarvestedJoules = 0.05
	fs.Results.ConsumedJoules = 10 // far beyond harvested + initial store
	fs.BufferLen = 2
	fs.Results.Arrivals = 2
	err := c.Finish(fs)
	if err == nil || !strings.Contains(err.Error(), "energy-feasibility") {
		t.Fatalf("impossible consumption not caught: %v", err)
	}
}

func TestStatsMismatch(t *testing.T) {
	c := New(Config{})
	c.Step(cleanStep(0))
	fs := FinalState{StepState: *cleanStep(1)}
	fs.Results.SimSeconds = 1
	fs.Results.HarvestedJoules = 99 // does not match the store's counter
	err := c.Finish(fs)
	if err == nil || !strings.Contains(err.Error(), "stats-mismatch") {
		t.Fatalf("results/store divergence not caught: %v", err)
	}
}

// All violations surface together, bounded by MaxRecorded with an overflow
// note.
func TestViolationsJoinedAndBounded(t *testing.T) {
	c := New(Config{MaxRecorded: 3})
	c.Step(cleanStep(0))
	for i := 0; i < 10; i++ {
		st := cleanStep(float64(i))
		st.BufferLen = -1
		st.Store.Energy = -1
		c.Step(st)
	}
	err := c.Err()
	if err == nil {
		t.Fatal("no error")
	}
	msg := err.Error()
	for _, want := range []string{"store-bounds", "further violations not recorded"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error missing %q:\n%s", want, msg)
		}
	}
	// Three recorded violations plus the overflow note.
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("error %T does not join its violations", err)
	}
	errs := joined.Unwrap()
	if len(errs) != 4 {
		t.Fatalf("joined %d errors, want 3 violations + 1 overflow note:\n%s", len(errs), msg)
	}
	for _, e := range errs[:3] {
		if _, ok := e.(Violation); !ok {
			t.Errorf("recorded error %T is not a Violation", e)
		}
	}
}

func TestViolationError(t *testing.T) {
	v := Violation{Name: "store-bounds", Time: 1.5, Detail: "boom"}
	want := "invariant store-bounds at t=1.500s: boom"
	if v.Error() != want {
		t.Errorf("got %q, want %q", v.Error(), want)
	}
}
