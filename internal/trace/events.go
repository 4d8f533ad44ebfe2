package trace

import (
	"fmt"
	"math"
	"sort"

	"quetzal/internal/randsrc"
)

// Event is one contiguous burst of sensing activity. While an event is
// active, captured frames differ from the background and pass the cheap
// pre-filter into the input buffer. Interesting marks events the application
// wants reported (the paper's evaluation: frames containing people).
type Event struct {
	Start       float64 // seconds
	Duration    float64 // seconds
	Interesting bool
}

// End returns the event's end time.
func (e Event) End() float64 { return e.Start + e.Duration }

// EventTrace is a time-ordered, non-overlapping sequence of events.
type EventTrace struct {
	Events []Event
}

// ActiveAt returns the event active at time t, if any.
func (tr *EventTrace) ActiveAt(t float64) (Event, bool) {
	i := sort.Search(len(tr.Events), func(i int) bool {
		return tr.Events[i].End() > t
	})
	if i < len(tr.Events) && tr.Events[i].Start <= t {
		return tr.Events[i], true
	}
	return Event{}, false
}

// Duration returns the end time of the last event (the natural horizon of
// an experiment over this trace).
func (tr *EventTrace) Duration() float64 {
	if len(tr.Events) == 0 {
		return 0
	}
	return tr.Events[len(tr.Events)-1].End()
}

// CountInteresting returns how many events are interesting.
func (tr *EventTrace) CountInteresting() int {
	n := 0
	for _, e := range tr.Events {
		if e.Interesting {
			n++
		}
	}
	return n
}

// InterestingSeconds sums the durations of interesting events — an upper
// bound on the interesting frames a device capturing at 1 FPS could see.
func (tr *EventTrace) InterestingSeconds() float64 {
	s := 0.0
	for _, e := range tr.Events {
		if e.Interesting {
			s += e.Duration
		}
	}
	return s
}

// EventConfig parameterises the synthetic event generator.
//
// The paper "modeled sensing events in terms of their durations and
// interarrival times" drawn from a surveillance dataset, generating "multiple
// unique sensing environments using limits on the event durations" (§6.4).
// MaxDuration is that limit: 600 s (More Crowded), 60 s (Crowded), 20 s
// (Less Crowded) in Table 1.
type EventConfig struct {
	N                int     // number of events to generate
	MaxDuration      float64 // hard cap on event duration (the environment knob)
	MedianDuration   float64 // median of the log-normal duration distribution
	DurationSigma    float64 // log-space sigma of the duration distribution
	MinDuration      float64 // lower clamp on durations
	MeanInterarrival float64 // mean of the exponential gap between events
	MinInterarrival  float64 // lower clamp on gaps
	InterestingProb  float64 // probability an event is interesting
	Seed             int64
}

// DefaultEventConfig returns the generator settings used by the experiment
// harness for a given environment duration cap.
func DefaultEventConfig(n int, maxDuration float64, seed int64) EventConfig {
	return EventConfig{
		N:           n,
		MaxDuration: maxDuration,
		// Surveillance-style activity: most events are seconds long with a
		// heavy log-normal tail. The per-environment MaxDuration cap
		// truncates that tail — long "crowded" episodes survive only in
		// the more-crowded environment — which is how the paper's three
		// environments differ (§6.4).
		MedianDuration:   8,
		DurationSigma:    1.5,
		MinDuration:      1.0,
		MeanInterarrival: 5,
		MinInterarrival:  2,
		InterestingProb:  0.5,
		Seed:             seed,
	}
}

// GenerateEvents produces a deterministic event trace from cfg.
// It panics on invalid configuration.
func GenerateEvents(cfg EventConfig) *EventTrace {
	if cfg.N <= 0 {
		panic(fmt.Sprintf("trace: event count must be positive, got %d", cfg.N))
	}
	if cfg.MaxDuration <= 0 || cfg.MedianDuration <= 0 || cfg.MeanInterarrival <= 0 {
		panic(fmt.Sprintf("trace: event durations/interarrivals must be positive, got %+v", cfg))
	}
	if cfg.InterestingProb < 0 || cfg.InterestingProb > 1 {
		panic(fmt.Sprintf("trace: interesting probability must be in [0,1], got %g", cfg.InterestingProb))
	}
	rng := randsrc.New(cfg.Seed)
	events := make([]Event, 0, cfg.N)
	t := 0.0
	mu := math.Log(cfg.MedianDuration)
	for i := 0; i < cfg.N; i++ {
		gap := rng.ExpFloat64() * cfg.MeanInterarrival
		if gap < cfg.MinInterarrival {
			gap = cfg.MinInterarrival
		}
		t += gap
		d := math.Exp(mu + cfg.DurationSigma*rng.NormFloat64())
		if d < cfg.MinDuration {
			d = cfg.MinDuration
		}
		if d > cfg.MaxDuration {
			d = cfg.MaxDuration
		}
		events = append(events, Event{
			Start:       t,
			Duration:    d,
			Interesting: rng.Float64() < cfg.InterestingProb,
		})
		t += d
	}
	return &EventTrace{Events: events}
}

// Validate checks that the trace is time-ordered and non-overlapping; the
// simulator assumes both.
func (tr *EventTrace) Validate() error {
	prevEnd := math.Inf(-1)
	for i, e := range tr.Events {
		if e.Duration <= 0 {
			return fmt.Errorf("trace: event %d has non-positive duration %g", i, e.Duration)
		}
		if e.Start < prevEnd {
			return fmt.Errorf("trace: event %d starts at %g before previous end %g", i, e.Start, prevEnd)
		}
		prevEnd = e.End()
	}
	return nil
}
