package main

// The fleet-solar workload: fleet.Run with the default fleet plan (qz,
// less-crowded, 4 events per device, jitter 0.1, lockstep, checks off),
// one fleet after another with seed-derived fleet seeds. Per-device set-up
// (trace generation, policy build, machine construction), crawl replay and
// the fleet fold matter here and are small elsewhere.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"quetzal/internal/core"
	"quetzal/internal/energy"
	"quetzal/internal/experiments"
	"quetzal/internal/fleet"
	"quetzal/internal/metrics"
	"quetzal/internal/sim"
	"quetzal/internal/trace"
)

// fleetDrainTime is fleet.Options' default per-device drain tail, which the
// mirror must reproduce.
const fleetDrainTime = 15

// fleetPlan resolves the default fleet spec for one fleet seed.
func fleetPlan(devices int, seed int64) (experiments.FleetPlan, error) {
	return experiments.FleetSpec{
		Devices: devices,
		System:  experiments.SysQuetzal,
		Env:     experiments.LessCrowded.Name,
		Seed:    seed,
		Jitter:  0.1,
	}.Plan()
}

// fleetSeeds derives the run's distinct fleet seeds.
func fleetSeeds(seed int64, n int) []int64 {
	rng := seedRand(seed, "fleet-solar")
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(1<<31) + 1
	}
	return out
}

func runFleet(ctx context.Context, p params) (*outcome, error) {
	seeds := fleetSeeds(p.seed, p.size.fleetDistinct)
	plans := make([]experiments.FleetPlan, len(seeds))
	for i, s := range seeds {
		plan, err := fleetPlan(p.size.fleetDevices, s)
		if err != nil {
			return nil, err
		}
		plans[i] = plan
	}
	if p.traced {
		return traceFleet(ctx, p, plans)
	}
	o := &outcome{metrics: map[string]float64{}}

	// Set-up: construct the first shard of the first fleet — traces,
	// controller, machine per device — without running it. The
	// construction is the benchmark's fleetMirror, which makes the calls
	// fleet.Run makes per device; after the measured window, one mirror run
	// of the first fleet must reproduce fleet.Run's aggregate bit for bit.
	var ops batchOps
	setupS, err := timeSetup(p.size.setupReps, nil, func() error {
		fm := newFleetMirror(plans[0])
		for i := 0; i < min(plans[0].ShardSize, plans[0].Devices); i++ {
			cfg, err := fm.deviceConfig(i, nil, nil)
			if err != nil {
				return err
			}
			if _, err := sim.New(cfg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	digests := make([]string, len(plans))
	var qz qzOutcome
	heap := startHeapSampler()
	err = measureLoop(p.seconds, func(pass int) error {
		return ops.run(func() (float64, int, bool, error) {
			input := pass % len(plans)
			plan := plans[input]
			agg, _, err := fleet.Run(ctx, plan, fleet.Options{Workers: 1})
			o.attempted += plan.Devices
			switch {
			case err != nil:
				o.fail("fleet %d (seed %d): %v", pass, plan.Seed, err)
				return 0, 0, false, nil
			case agg.Totals.Devices != plan.Devices:
				o.fail("fleet %d: aggregate folds %d devices, want %d", pass, agg.Totals.Devices, plan.Devices)
				return 0, 0, false, nil
			}
			d, err := digestJSON(agg)
			if err != nil {
				return 0, 0, false, err
			}
			switch {
			case pass < len(plans):
				digests[input] = d
				qz.addTotals(agg.Totals)
			case d != digests[input]:
				o.fail("fleet %d (seed %d): aggregate differs from the first fleet on the same seed", pass, plan.Seed)
				return agg.SimSeconds, plan.Devices, false, nil
			}
			return agg.SimSeconds, plan.Devices, true, nil
		})
	}, len(plans))
	peak := heap.peakMiB()
	if err != nil {
		return nil, err
	}
	o.attempted += plans[0].Devices
	mirror, err := newFleetMirror(plans[0]).run(ctx, o, newLayerTimes(), &fleetTrace{})
	if err != nil {
		return nil, fmt.Errorf("set-up's construction: %w", err)
	}
	if d, err := digestJSON(mirror); err != nil {
		return nil, err
	} else if d != digests[0] {
		o.fail("set-up's construction of fleet seed %d folds differently from fleet.Run", plans[0].Seed)
	}
	o.digest = combineDigests(digests)
	o.metrics["setup_s"] = setupS
	ops.fill(o.metrics)
	o.metrics["peak_heap_mib"] = peak
	o.metrics["discard_frac"] = ratioOf(qz.discarded, qz.interesting)
	o.metrics["highq_share"] = ratioOf(qz.highQ, qz.reported)
	return o, nil
}

// addTotals pools a fleet aggregate's qz accounting (every device runs qz).
func (q *qzOutcome) addTotals(t fleet.Totals) {
	q.discarded += t.IBOLossesInteresting + t.FalseNegatives
	q.interesting += t.InterestingArrivals
	q.highQ += t.HighQInteresting
	q.reported += t.ReportedInteresting
}

// fleetMirror rebuilds fleet.Run's per-device configuration from public
// calls, so each device's set-up can be timed separately from its run.
// TestFleetMirrorMatchesRun and the traced run's digest check pin that it
// reproduces fleet.Run bit for bit.
type fleetMirror struct {
	plan  experiments.FleetPlan
	setup experiments.Setup
	solar *trace.FleetSolar
}

func newFleetMirror(plan experiments.FleetPlan) *fleetMirror {
	profile, _ := experiments.ProfileByName(plan.Profile) // Plan validated it
	refDur := float64(plan.Events)*(5+math.Min(25, plan.Env.MaxDuration)) + fleetDrainTime + 120
	solarCfg := trace.DefaultSolarConfig(refDur, fleet.DeviceSeed(plan.Seed, 0, fleet.StreamRegional))
	return &fleetMirror{
		plan: plan,
		setup: experiments.Setup{
			Profile:   profile,
			NumEvents: plan.Events,
			Seed:      plan.Seed,
			Cells:     experiments.ReferenceCells,
			Engine:    plan.Engine,
		},
		solar: trace.NewFleetSolar(solarCfg, plan.Correlation),
	}
}

func jittered(base, j, u float64) float64 { return base * (1 + j*u) }

// deviceConfig assembles device i's simulation config as fleet.Run does.
// With lt set, trace generation and the policy build are timed as spans;
// wrap, when set, replaces the controller.
func (f *fleetMirror) deviceConfig(i int, lt *layerTimes, wrap func(core.Controller) core.Controller) (sim.Config, error) {
	plan := f.plan
	id := fmt.Sprintf("device %d", i)
	var events *trace.EventTrace
	var power *trace.Sampled
	lt.time("trace", id, func() {
		events = trace.GenerateEvents(trace.DefaultEventConfig(
			plan.Events, plan.Env.MaxDuration, fleet.DeviceSeed(plan.Seed, i, fleet.StreamEvents)))
		power = f.solar.Device(fleet.DeviceSeed(plan.Seed, i, fleet.StreamSolar), events.Duration()+fleetDrainTime)
	})

	jr := rand.New(rand.NewSource(fleet.DeviceSeed(plan.Seed, i, fleet.StreamJitter)))
	uPeriod := 2*jr.Float64() - 1
	uCap := 2*jr.Float64() - 1
	uBuf := 2*jr.Float64() - 1
	uCells := 2*jr.Float64() - 1
	j := plan.Jitter

	capture := jittered(1.0, j, uPeriod)
	store := energy.DefaultConfig()
	store.Capacitance = jittered(store.Capacitance, j, uCap)
	bufCap := int(math.Round(jittered(float64(f.setup.Profile.BufferCapacity), j, uBuf)))
	if bufCap < 1 {
		bufCap = 1
	}
	var pw trace.PowerTrace = power
	if scale := jittered(1.0, j, uCells); scale != 1 {
		pw = trace.Scaled{Base: power, Factor: scale}
	}

	setup := f.setup
	setup.CapturePeriod = capture
	var ctl core.Controller
	var ctlBufCap int
	var err error
	app := setup.Profile.PersonDetectionApp()
	lt.time("policy", id, func() { ctl, ctlBufCap, err = setup.Controller(plan.System, app, pw, events) })
	if err != nil {
		return sim.Config{}, err
	}
	if ctlBufCap > 0 {
		bufCap = ctlBufCap
	}
	if wrap != nil {
		ctl = wrap(ctl)
	}
	cfg := sim.Config{
		Profile:        setup.Profile,
		App:            app,
		Controller:     ctl,
		Power:          pw,
		Events:         events,
		Store:          store,
		Engine:         plan.Engine,
		CapturePeriod:  capture,
		DrainTime:      fleetDrainTime,
		BufferCapacity: bufCap,
		Seed:           fleet.DeviceSeed(plan.Seed, i, fleet.StreamSim),
		Checks:         sim.ChecksOff,
		Environment:    plan.Env.Name,
		Faults:         plan.Env.Faults,
	}
	if plan.Faults.Enabled() {
		cfg.Faults = plan.Faults
	}
	if cfg.Faults.Enabled() {
		cfg.FaultSeed = fleet.DeviceSeed(plan.Seed, i, fleet.StreamFaults)
	}
	return cfg, nil
}

// fleetTrace accumulates the traced fleet counters beyond layer times.
type fleetTrace struct {
	devices, decisions, replayed int
	simS                         float64
}

// run simulates every device of the mirror's plan serially, timing each
// layer, and folds them shard by shard exactly as fleet.Run does. Each
// device's full results pass the accounting gate before they are folded.
func (f *fleetMirror) run(ctx context.Context, o *outcome, lt *layerTimes, ft *fleetTrace) (*fleet.Aggregate, error) {
	acc := fleet.NewAccumulator()
	plan := f.plan
	for lo := 0; lo < plan.Devices; lo += plan.ShardSize {
		hi := min(lo+plan.ShardSize, plan.Devices)
		b := fleet.NewBlock(hi - lo)
		for i := lo; i < hi; i++ {
			id := fmt.Sprintf("seed %d device %d", plan.Seed, i)
			var tc *timedController
			wrap := func(c core.Controller) core.Controller {
				tc = &timedController{inner: c}
				return tc
			}
			cfg, err := f.deviceConfig(i, lt, wrap)
			if err != nil {
				return nil, err
			}
			var simulator *sim.Simulator
			lt.time("sim.new", id, func() { simulator, err = sim.New(cfg) })
			if err != nil {
				return nil, err
			}
			var foldIn time.Duration
			var res metrics.Results
			lt.time("run", id, func() {
				err = simulator.RunIntoContext(ctx, func(r *metrics.Results) {
					start := time.Now()
					res = *r
					b.Push(metrics.Summarize(r))
					foldIn = time.Since(start)
				})
			})
			if err != nil {
				return nil, err
			}
			lt.ns["run"] -= foldIn
			lt.ns["fold"] += foldIn
			lt.ns["core"] += tc.busy
			lt.ns["core.decide"] += tc.decide
			if err := res.Check(); err != nil {
				o.fail("%s: %v", id, err)
			}
			if tc.decisions > res.SchedInvocations {
				o.fail("%s: %d NextJob calls exceed %d scheduler invocations", id, tc.decisions, res.SchedInvocations)
			}
			ft.devices++
			ft.decisions += tc.decisions
			ft.replayed += simulator.Machine().ReplayedSteps()
			ft.simS += res.SimSeconds
		}
		lt.time("fold", fmt.Sprintf("seed %d shard %d", plan.Seed, lo/plan.ShardSize), func() { acc.FoldBlock(b) })
	}
	return acc.Aggregate(), nil
}

// traceFleet is the traced run: for each distinct fleet seed, while the
// time budget lasts, one untraced serial fleet.Run and one traced serial
// mirror run, whose aggregate digests must agree.
func traceFleet(ctx context.Context, p params, plans []experiments.FleetPlan) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	lt := newLayerTimes()
	var ft fleetTrace
	epoch := time.Now()
	var wallU, wallT time.Duration
	var digests []string
	shards := 0
	for i := 0; i < len(plans) && (i == 0 || time.Since(epoch).Seconds() < p.seconds); i++ {
		plan := plans[i]
		o.attempted += plan.Devices
		t0 := time.Now()
		agg, _, err := fleet.Run(ctx, plan, fleet.Options{
			Workers:    1,
			OnProgress: func(int, int) { shards++ },
		})
		wallU += time.Since(t0)
		if err != nil {
			o.fail("untraced fleet %d: %v", i, err)
			continue
		}
		t1 := time.Now()
		var fm *fleetMirror
		lt.time("trace", fmt.Sprintf("seed %d regional sky", plan.Seed), func() { fm = newFleetMirror(plan) })
		aggT, err := fm.run(ctx, o, lt, &ft)
		wallT += time.Since(t1)
		if err != nil {
			o.fail("traced fleet %d: %v", i, err)
			continue
		}
		du, err := digestJSON(agg)
		if err != nil {
			return nil, err
		}
		dt, err := digestJSON(aggT)
		if err != nil {
			return nil, err
		}
		if du != dt {
			o.fail("fleet %d (seed %d): traced aggregate differs from fleet.Run's", i, plan.Seed)
		}
		digests = append(digests, du)
	}
	if ft.devices == 0 || wallT <= 0 {
		return nil, errNoWork
	}
	if len(digests) == len(plans) {
		o.digest = combineDigests(digests)
	}
	if err := lt.writeSpans(p.workDir, fmt.Sprintf("spans-fleet-solar-%d.json", p.seed), epoch); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	n := float64(ft.devices)
	w := float64(wallT)
	coreNs := lt.ns["core"]
	engineSelf := lt.ns["run"] - coreNs
	setupNs := lt.sum("trace", "policy", "sim.new")
	m := o.metrics
	m["core.ns_per_decision"] = float64(lt.ns["core.decide"]) / max(float64(ft.decisions), 1)
	m["core.decisions_per_run"] = float64(ft.decisions) / n
	m["core.share"] = float64(coreNs) / w
	m["engine.ns_per_sim_s"] = float64(engineSelf) / ft.simS
	m["engine.share"] = float64(engineSelf) / w
	m["engine.replayed_steps_per_run"] = float64(ft.replayed) / n
	m["engine.allocs_per_run"] = float64(lt.allocs["run"]) / n
	m["trace.ns_per_run"] = float64(lt.ns["trace"]) / n
	m["trace.allocs_per_run"] = float64(lt.allocs["trace"]) / n
	m["policy.build_ns"] = float64(lt.ns["policy"]) / n
	m["sim.new_ns"] = float64(lt.ns["sim.new"]) / n
	m["sim.new_allocs"] = float64(lt.allocs["sim.new"]) / n
	m["fleet.setup_ns_per_device"] = float64(setupNs) / n
	m["fleet.run_ns_per_device"] = float64(lt.ns["run"]) / n
	m["fleet.fold_ns_per_device"] = float64(lt.ns["fold"]) / n
	m["setup.share"] = float64(setupNs) / w
	m["runner.executed"] = float64(shards)
	m["bench.trace_overhead_frac"] = float64(wallT-wallU) / float64(wallU)
	m["bench.unattributed_frac"] = 1 - float64(lt.sum("trace", "policy", "sim.new", "run", "fold"))/w
	return o, nil
}
