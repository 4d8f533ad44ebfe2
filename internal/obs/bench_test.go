package obs_test

import (
	"bufio"
	"context"
	"io"
	"testing"

	"quetzal/internal/baseline"
	"quetzal/internal/device"
	"quetzal/internal/obs"
	"quetzal/internal/sim"
	"quetzal/internal/trace"
)

// benchObsRun measures the observability layer's cost on the shared
// benchmark workload from internal/engine/bench_test.go (Apollo4, NoAdapt,
// 20 interesting events over 460 simulated seconds, duty-cycled square
// wave), with invariant checks off so the obs delta is not buried under the
// checker. mutate attaches the sinks under test; the disabled variant is
// the baseline the enabled sinks' cost is read against.
func benchObsRun(b *testing.B, mutate func(*sim.Config)) {
	prof := device.Apollo4()
	events := &trace.EventTrace{}
	t := 10.0
	for i := 0; i < 20; i++ {
		events.Events = append(events.Events, trace.Event{Start: t, Duration: 10, Interesting: true})
		t += 20
	}
	power := trace.SquareWave{High: 0.05, Low: 0.004, Period: 60, Duty: 0.5}
	b.ReportAllocs()
	simulated := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := prof.PersonDetectionApp()
		ctl, err := baseline.NoAdapt(app)
		if err != nil {
			b.Fatal(err)
		}
		cfg := sim.Config{
			Profile: prof, App: app, Controller: ctl,
			Power: power, Events: events,
			Seed:   42,
			Engine: sim.EventDriven,
			Checks: sim.ChecksOff,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.RunContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		simulated += res.SimSeconds
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(simulated/sec, "sim-s/s")
	}
	if b.N > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/simulated, "ns/sim-s")
	}
}

// BenchmarkObsDisabled is the baseline every other variant is compared to:
// no obs sinks wired at all.
func BenchmarkObsDisabled(b *testing.B) {
	benchObsRun(b, nil)
}

// BenchmarkObsMetrics adds the per-step metrics observer.
func BenchmarkObsMetrics(b *testing.B) {
	reg := obs.NewRegistry()
	benchObsRun(b, func(cfg *sim.Config) { cfg.Metrics = reg })
}

// BenchmarkObsTrace adds the full Chrome trace exporter (rendered and
// discarded, buffered like a real file write).
func BenchmarkObsTrace(b *testing.B) {
	benchObsRun(b, func(cfg *sim.Config) {
		cfg.Trace = bufio.NewWriter(io.Discard)
	})
}

// BenchmarkObsJSONL adds the JSONL event-log exporter.
func BenchmarkObsJSONL(b *testing.B) {
	benchObsRun(b, func(cfg *sim.Config) {
		cfg.TraceJSONL = bufio.NewWriter(io.Discard)
	})
}
