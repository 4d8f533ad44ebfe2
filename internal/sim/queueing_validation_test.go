package sim

import (
	"math"
	"math/rand"
	"testing"

	"quetzal/internal/device"
	"quetzal/internal/model"
	"quetzal/internal/trace"
)

// md1System is the expected number in an M/D/1 system (Poisson arrivals,
// deterministic service) at utilization rho < 1: Pollaczek–Khinchine with
// zero service variance, Lq = ρ²/(2(1−ρ)), plus the one in service.
func md1System(rho float64) float64 { return rho*rho/(2*(1-rho)) + rho }

// mm1System is the expected number in an M/M/1 system at rho < 1: ρ/(1−ρ).
func mm1System(rho float64) float64 { return rho / (1 - rho) }

// mm1kBlocking is the probability that an arrival finds an M/M/1/K system
// (capacity k including the server) full: the analytic input buffer
// overflow rate. At ρ = 1 the distribution is uniform over 0..k.
func mm1kBlocking(rho float64, k int) float64 {
	if math.Abs(rho-1) < 1e-12 {
		return 1 / float64(k+1)
	}
	return (1 - rho) * math.Pow(rho, float64(k)) / (1 - math.Pow(rho, float64(k+1)))
}

// singleStageApp is a one-task pipeline with deterministic service time s:
// the closest executable analogue of a single-server queue.
func singleStageApp(service float64) *model.App {
	work := &model.Task{Name: "work", Kind: model.Compute,
		Options: []model.Option{{Name: "only", Texe: service, Pexe: 0.005}}}
	return &model.App{
		Name:        "single-stage",
		Jobs:        []*model.Job{{ID: 0, Name: "serve", Tasks: []*model.Task{work}, SpawnJobID: model.NoSpawn}},
		EntryJobID:  0,
		CaptureTexe: 0.004, CapturePexe: 0.002,
	}
}

// bernoulliEvents builds an event trace where each event covers exactly one
// capture instant, with geometric gaps — a discrete-time approximation of
// Poisson arrivals at rate p per second.
func bernoulliEvents(n int, p float64, seed int64) *trace.EventTrace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.EventTrace{}
	t := 0.5 // offset so each 1 s event straddles exactly one integer capture
	for i := 0; i < n; i++ {
		// Geometric gap with success probability p (in whole seconds).
		gap := 1
		for rng.Float64() >= p {
			gap++
		}
		t += float64(gap)
		tr.Events = append(tr.Events, trace.Event{Start: t - 0.999, Duration: 0.999, Interesting: true})
	}
	return tr
}

// The simulator's queue must track the analytic single-server models: with
// Bernoulli(p) arrivals and deterministic service s, the time-averaged
// occupancy should land near the M/D/1 prediction (between the M/D/1 value
// and the heavier-tailed M/M/1 value, with slack for the capture-pipeline
// interference and discrete arrivals).
func TestSimulatorMatchesSingleServerTheory(t *testing.T) {
	const service = 0.4
	app := singleStageApp(service)
	ctl := noadaptController(t, app)
	s, err := New(Config{
		Profile:        device.Apollo4(),
		App:            app,
		Controller:     ctl,
		Power:          trace.Constant{P: 0.2}, // ample: service is compute-bound
		Events:         bernoulliEvents(1500, 0.5, 11),
		BufferCapacity: 500, // effectively infinite: no blocking
		DrainTime:      60,
		Seed:           12,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.IBODropsInteresting+res.IBODropsOther != 0 {
		t.Fatalf("unexpected drops with a 500-slot buffer")
	}

	lambda := float64(res.Arrivals) / res.SimSeconds
	// Effective service includes the capture pipeline's preemption (~4 ms
	// per capture, i.e. per second).
	effService := service + 0.004
	rho := lambda * effService
	if rho <= 0.1 || rho >= 0.5 {
		t.Fatalf("calibration off: ρ = %.3f, want ≈ 0.2", rho)
	}

	measured := res.OccupancyIntegral / res.SimSeconds
	lo := md1System(rho) * 0.5
	hi := mm1System(rho) * 2.0
	if measured < lo || measured > hi {
		t.Errorf("avg occupancy %.4f outside analytic band [%.4f (M/D/1·0.5), %.4f (M/M/1·2)] at ρ=%.3f",
			measured, lo, hi, rho)
	}
	t.Logf("λ=%.3f ρ=%.3f measured L=%.4f, M/D/1=%.4f, M/M/1=%.4f",
		lambda, rho, measured, md1System(rho), mm1System(rho))
}

// With a tiny buffer under overload, measured loss must approach the
// analytic heavy-traffic blocking of a finite queue.
func TestSimulatorBlockingMatchesFiniteQueueTheory(t *testing.T) {
	const service = 2.0 // ρ ≈ 1 at every-second arrivals: sustained overload
	app := singleStageApp(service)
	ctl := noadaptController(t, app)
	s, err := New(Config{
		Profile:        device.Apollo4(),
		App:            app,
		Controller:     ctl,
		Power:          trace.Constant{P: 0.2},
		Events:         steadyEvents(4, 300, 10, true), // near-continuous arrivals
		BufferCapacity: 5,
		Seed:           13,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	lambda := float64(res.Arrivals) / res.SimSeconds
	rho := lambda * (service + 0.004)
	dropped := float64(res.IBODropsInteresting + res.IBODropsOther)
	measured := dropped / float64(res.Arrivals)
	analytic := mm1kBlocking(rho, 5)
	// Deterministic service loses less than exponential at equal ρ, but in
	// heavy traffic both approach 1−1/ρ; allow a generous band.
	if measured < analytic*0.5 || measured > analytic*1.5 {
		t.Errorf("measured loss %.3f vs M/M/1/K blocking %.3f at ρ=%.2f: outside ±50%%",
			measured, analytic, rho)
	}
	t.Logf("ρ=%.2f measured loss %.3f, analytic blocking %.3f", rho, measured, analytic)
}
