package quetzal_test

import (
	"fmt"
	"log"

	"quetzal"
)

// Example runs the paper's person-detection application under Quetzal on a
// deterministic environment and reports whether the runtime beat the
// non-adaptive baseline — the paper's headline claim, as a godoc example.
func Example() {
	profile := quetzal.Apollo4()
	events := quetzal.GenerateEvents(quetzal.DefaultEventConfig(60, 60, 7))
	power := quetzal.GenerateSolar(quetzal.DefaultSolarConfig(events.Duration()+120, 8))

	run := func(build func(*quetzal.App) (quetzal.Controller, error)) quetzal.Results {
		app := profile.PersonDetectionApp()
		ctl, err := build(app)
		if err != nil {
			log.Fatal(err)
		}
		res, err := quetzal.Simulate(quetzal.SimConfig{
			Profile: profile, App: app, Controller: ctl,
			Power: power, Events: events, Seed: 9,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	qz := run(func(app *quetzal.App) (quetzal.Controller, error) {
		return quetzal.NewRuntime(quetzal.RuntimeConfig{App: app, CapturePeriod: 1})
	})
	na := run(quetzal.NoAdapt)

	fmt.Println("quetzal beats noadapt on discards:", qz.InterestingDiscarded() < na.InterestingDiscarded())
	fmt.Println("quetzal averted IBOs:", qz.IBOsAverted > 0)
	// Output:
	// quetzal beats noadapt on discards: true
	// quetzal averted IBOs: true
}

// ExampleNewRuntime shows the host-side control loop a firmware port would
// implement around the runtime: observe captures, ask for the next job,
// report completions.
func ExampleNewRuntime() {
	app := quetzal.Apollo4().PersonDetectionApp()
	rt, err := quetzal.NewRuntime(quetzal.RuntimeConfig{App: app, CapturePeriod: 1})
	if err != nil {
		log.Fatal(err)
	}

	buf := quetzal.NewInputBuffer(10)
	// A captured frame passed the pre-filter and entered the buffer.
	buf.Push(quetzal.Input{Seq: 1, CapturedAt: 0, Interesting: true, JobID: app.EntryJobID})
	rt.ObserveCapture(true)

	dec, ok := rt.NextJob(quetzal.Env{
		Now:        1,
		InputPower: 0.020, // 20 mW measured through the hardware module
		BufferLen:  buf.Len(),
		BufferCap:  buf.Capacity(),
	}, buf)

	fmt.Println("scheduled:", ok, "job:", dec.JobID, "degraded:", dec.Degraded)
	// Output:
	// scheduled: true job: 0 degraded: false
}

// ExampleGenerateEvents builds the three Table 1 sensing environments from
// the same generator by varying only the duration cap.
func ExampleGenerateEvents() {
	for _, cap := range []float64{600, 60, 20} {
		tr := quetzal.GenerateEvents(quetzal.DefaultEventConfig(500, cap, 42))
		longest := 0.0
		for _, e := range tr.Events {
			if e.Duration > longest {
				longest = e.Duration
			}
		}
		fmt.Printf("cap %gs: longest event %.0fs\n", cap, longest)
	}
	// Output:
	// cap 600s: longest event 508s
	// cap 60s: longest event 60s
	// cap 20s: longest event 20s
}

// acousticMonitor defines a custom application: a degradable spectrogram
// classifier (large vs small model), then a report job with a degradable
// uplink (full audio clip vs a 4-byte detection flag).
func acousticMonitor() *quetzal.App {
	classify := &quetzal.Task{
		Name: "classify-call",
		Kind: quetzal.Classify,
		Options: []quetzal.Option{
			{Name: "crnn-large", Texe: 0.6, Pexe: 0.011, FalseNegative: 0.05, FalsePositive: 0.06},
			{Name: "crnn-small", Texe: 0.2, Pexe: 0.008, FalseNegative: 0.18, FalsePositive: 0.12},
		},
	}
	encode := &quetzal.Task{
		Name:    "encode",
		Kind:    quetzal.Compute,
		Options: []quetzal.Option{{Name: "opus", Texe: 0.2, Pexe: 0.007}},
	}
	uplink := &quetzal.Task{
		Name: "uplink",
		Kind: quetzal.Transmit,
		Options: []quetzal.Option{
			{Name: "audio-clip", Texe: 1.0, Pexe: 0.12, HighQuality: true},
			{Name: "flag", Texe: 0.08, Pexe: 0.04},
		},
	}
	return &quetzal.App{
		Name: "acoustic-monitor",
		Jobs: []*quetzal.Job{
			{ID: 0, Name: "detect", Tasks: []*quetzal.Task{classify}, SpawnJobID: 1},
			{ID: 1, Name: "report", Tasks: []*quetzal.Task{encode, uplink}, SpawnJobID: quetzal.NoSpawn},
		},
		EntryJobID:  0,
		CaptureTexe: 0.03,
		CapturePexe: 0.006,
	}
}

// ExampleApp runs a custom application — an acoustic wildlife monitor
// rather than the paper's camera — under each scheduling policy and S_e2e
// estimator (the paper's Fig 12 / §7.3 sensitivity study, on user-defined
// tasks). The Avg-S_e2e estimator ignores input power and misjudges service
// times under variable harvest; the hardware module tracks the
// exact-division estimator within its quantisation band at ~1/10 the energy
// per ratio (§5.1).
func ExampleApp() {
	events := quetzal.GenerateEvents(quetzal.DefaultEventConfig(200, 45, 41))
	power := quetzal.GenerateSolar(quetzal.DefaultSolarConfig(events.Duration()+120, 42))

	variants := []struct {
		name   string
		policy quetzal.Policy
		kind   quetzal.EstimatorKind
	}{
		{"energy-sjf + hw-module", quetzal.EnergySJF(), quetzal.HardwareModule},
		{"energy-sjf + division", quetzal.EnergySJF(), quetzal.ExactDivision},
		{"energy-sjf + avg-se2e", quetzal.EnergySJF(), quetzal.AveragedSe2e},
		{"fcfs + hw-module", quetzal.FCFS(), quetzal.HardwareModule},
		{"lcfs + hw-module", quetzal.LCFS(), quetzal.HardwareModule},
		{"capture-order + hw-module", quetzal.CaptureOrder(), quetzal.HardwareModule},
	}
	fmt.Printf("%-26s %9s %6s %8s %5s %9s\n", "variant", "discarded", "ibo", "reported", "highq", "degraded")
	for _, v := range variants {
		app := acousticMonitor()
		rt, err := quetzal.NewRuntime(quetzal.RuntimeConfig{
			App: app, CapturePeriod: 1, Policy: v.policy, Kind: v.kind,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := quetzal.Simulate(quetzal.SimConfig{
			Profile: quetzal.Apollo4(), App: app, Controller: rt,
			Power: power, Events: events, Seed: 43,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s %8.1f%% %5.1f%% %8d %4.0f%% %9d\n", v.name,
			res.DiscardedFraction()*100, res.IBOFraction()*100, res.ReportedInteresting(),
			res.HighQualityShare()*100, res.Degradations)
	}
	// Output:
	// variant                    discarded    ibo reported highq  degraded
	// energy-sjf + hw-module          9.0%   1.3%     1634   26%      1828
	// energy-sjf + division           9.6%   1.3%     1623   26%      1807
	// energy-sjf + avg-se2e          34.4%  27.4%     1177   60%      1117
	// fcfs + hw-module                6.9%   0.6%     1672   21%      1617
	// lcfs + hw-module                7.7%   0.8%     1656   23%      1691
	// capture-order + hw-module       6.9%   0.6%     1672   21%      1617
}

// ExampleCheckpointPolicy runs the same workload on a deliberately
// undersized supercapacitor under the three checkpoint policies, then an
// atomic beacon task that must fit within a single charge. The 8 mF store
// holds about 23 mJ usable: a 12 mJ inference fits, but under weak harvest
// the device browns out mid-pipeline all the time.
func ExampleCheckpointPolicy() {
	profile := quetzal.Apollo4()
	store := quetzal.DefaultStoreConfig()
	store.Capacitance = 0.008

	events := quetzal.GenerateEvents(quetzal.DefaultEventConfig(120, 30, 51))
	power := quetzal.GenerateSolar(quetzal.DefaultSolarConfig(events.Duration()+120, 52))

	fmt.Printf("%-10s %9s %9s %9s %8s %6s\n", "checkpoint", "jobs done", "brownouts", "discarded", "reported", "aborts")
	for _, policy := range []quetzal.CheckpointPolicy{
		quetzal.JITCheckpoint, quetzal.PeriodicCheckpoint, quetzal.NoCheckpoint,
	} {
		app := profile.PersonDetectionApp()
		rt, err := quetzal.NewRuntime(quetzal.RuntimeConfig{App: app, CapturePeriod: 1})
		if err != nil {
			log.Fatal(err)
		}
		res, err := quetzal.Simulate(quetzal.SimConfig{
			Profile: profile, App: app, Controller: rt,
			Power: power, Events: events, Store: store,
			Checkpoint: policy, CheckpointInterval: 0.25, Seed: 53,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10v %9d %9d %8.1f%% %8d %6d\n", policy, res.JobsCompleted, res.Brownouts,
			res.DiscardedFraction()*100, res.ReportedInteresting(), res.JobAborts)
	}

	// Atomic work: a beacon packet either completes within one charge or
	// restarts from scratch. The simulator banks a packet's full energy
	// before starting it, so restarts happen only when harvest collapses
	// mid-send.
	beacon := &quetzal.Task{
		Name:    "beacon",
		Kind:    quetzal.Transmit,
		Atomic:  true,
		Options: []quetzal.Option{{Name: "ping", Texe: 0.3, Pexe: 0.05, HighQuality: true}},
	}
	app := &quetzal.App{
		Name:        "beacon",
		Jobs:        []*quetzal.Job{{ID: 0, Name: "send", Tasks: []*quetzal.Task{beacon}, SpawnJobID: quetzal.NoSpawn}},
		EntryJobID:  0,
		CaptureTexe: 0.01, CapturePexe: 0.001,
	}
	na, err := quetzal.NoAdapt(app)
	if err != nil {
		log.Fatal(err)
	}
	res, err := quetzal.Simulate(quetzal.SimConfig{
		Profile: profile, App: app, Controller: na,
		Power:  quetzal.ConstantPower{P: 0.004},
		Events: quetzal.GenerateEvents(quetzal.DefaultEventConfig(40, 5, 54)),
		Store:  store,
		Seed:   55,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("atomic beacon (15 mJ/packet) at 4 mW: %d packets sent, %d atomic restarts, %d brownouts\n",
		res.TotalPackets(), res.AtomicRestarts, res.Brownouts)
	// Output:
	// checkpoint jobs done brownouts discarded reported aborts
	// jit             2109      1401     21.8%      516      0
	// periodic         811      3140     63.0%        0    279
	// none             817      3098     62.6%        0    281
	// atomic beacon (15 mJ/packet) at 4 mW: 86 packets sent, 0 atomic restarts, 0 brownouts
}

// ExampleMSP430 runs the paper's versatility study (Fig 13) in miniature:
// the Quetzal runtime on the much weaker MSP430FR5994, using the single-job
// fused pipeline (classify, then conditional compress + transmit within one
// job) and the Table 1 MSP430 environment (10 s events). The conditional
// tasks exercise §4.1's per-task execution-probability tracking: the
// scheduler learns how often they run and weights the job's E[S]
// accordingly.
func ExampleMSP430() {
	profile := quetzal.MSP430()
	events := quetzal.GenerateEvents(quetzal.DefaultEventConfig(150, 10, 31))
	power := quetzal.GenerateSolar(quetzal.DefaultSolarConfig(events.Duration()+120, 32))

	run := func(build func(*quetzal.App) (quetzal.Controller, error)) quetzal.Results {
		app := profile.FusedPipelineApp()
		ctl, err := build(app)
		if err != nil {
			log.Fatal(err)
		}
		res, err := quetzal.Simulate(quetzal.SimConfig{
			Profile: profile, App: app, Controller: ctl,
			Power: power, Events: events, Seed: 33,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	qz := run(func(app *quetzal.App) (quetzal.Controller, error) {
		return quetzal.NewRuntime(quetzal.RuntimeConfig{App: app, CapturePeriod: 1})
	})
	na := run(quetzal.NoAdapt)

	fmt.Printf("simulated %.0f s at 1 FPS: %d arrivals (%d interesting)\n",
		qz.SimSeconds, qz.Arrivals, qz.InterestingArrivals)
	fmt.Printf("quetzal discarded %.1f%% of interesting inputs (IBO %.1f%%), reported %d\n",
		qz.DiscardedFraction()*100, qz.IBOFraction()*100, qz.ReportedInteresting())
	fmt.Printf("%d jobs completed, %d degraded by the IBO engine\n", qz.JobsCompleted, qz.Degradations)
	fmt.Printf("runtime overhead: %.2f ms across %d invocations\n", qz.OverheadSeconds*1e3, qz.SchedInvocations)
	fmt.Printf("noadapt discarded %.1f%%\n", na.DiscardedFraction()*100)
	// Output:
	// simulated 1837 s at 1 FPS: 958 arrivals (543 interesting)
	// quetzal discarded 49.0% of interesting inputs (IBO 31.3%), reported 277
	// 670 jobs completed, 578 degraded by the IBO engine
	// runtime overhead: 10.05 ms across 670 invocations
	// noadapt discarded 57.5%
}
