package main

// The league workloads: experiments.LeaguePlan over a set of environments,
// executed through one experiments.Sweep per pass on the lockstep engine
// with invariant checks on — the way `experiments -league` runs the league.
//
// league-table1 runs the paper's Table 1 environments, where controller
// decisions dominate. league-faulty runs the faulty environment alone,
// where crawl-regime segment stepping under the invariant checker dominates
// and the controller is nearly idle.

import (
	"context"
	"fmt"
	"time"

	"quetzal/internal/core"
	"quetzal/internal/engine"
	"quetzal/internal/experiments"
	"quetzal/internal/invariant"
	"quetzal/internal/metrics"
	"quetzal/internal/model"
	"quetzal/internal/runner"
	"quetzal/internal/sim"
	"quetzal/internal/trace"
)

// faultyPanel lists the Setup seeds league-faulty draws from. The cost of
// one faulty run is heavy-tailed: a device that browns out during a
// harvester dropout crawls through its recharge in 1 ms checked steps, and
// whether it does depends on the seed's solar trace. Over seeds 1–60 at 150
// events, one pass of the faulty plan cost 1.0–7.8 s serially, and its
// slowest single run up to 85% of that. These are the seeds whose
// simulated seconds per host second lay within about 8% of the sample
// median and whose qz discard fraction and high-quality share lay near
// their medians too, so that a run's figures do not swing with which seeds
// it draws. Any other seed is an equally valid input, only a less typical
// one.
var faultyPanel = []int64{7, 13, 27, 43, 49, 53}

// sizes are the knobs that set how much work one run does. The self-test
// shrinks them; a benchmark run uses defaultSizes.
type sizes struct {
	setupReps int

	table1Events, table1Distinct int
	faultyEvents, faultyDistinct int

	fleetDevices, fleetDistinct int

	qzEvents int
	qzRate   float64 // offered requests per second
	qzHot    int     // distinct hot keys
}

var defaultSizes = sizes{
	setupReps:      9,
	table1Events:   300,
	table1Distinct: 24,
	faultyEvents:   150,
	faultyDistinct: 3,
	fleetDevices:   1024,
	fleetDistinct:  16,
	qzEvents:       40,
	qzRate:         400,
	qzHot:          64,
}

// leagueSpec is one league workload.
type leagueSpec struct {
	name     string
	envs     []experiments.Environment
	events   int
	distinct int     // distinct setup seeds per run
	panel    []int64 // when set, seeds are drawn from it
}

func runLeagueTable1(ctx context.Context, p params) (*outcome, error) {
	return runLeague(ctx, p, leagueSpec{
		name: "league-table1",
		envs: []experiments.Environment{
			experiments.MoreCrowded, experiments.Crowded, experiments.LessCrowded, experiments.MSP430Env,
		},
		events:   p.size.table1Events,
		distinct: p.size.table1Distinct,
	})
}

func runLeagueFaulty(ctx context.Context, p params) (*outcome, error) {
	return runLeague(ctx, p, leagueSpec{
		name:     "league-faulty",
		envs:     []experiments.Environment{experiments.Faulty},
		events:   p.size.faultyEvents,
		distinct: p.size.faultyDistinct,
		panel:    faultyPanel,
	})
}

// seeds derives the run's distinct Setup seeds from the benchmark seed.
func (sp leagueSpec) seeds(seed int64) []int64 {
	rng := seedRand(seed, sp.name)
	if sp.panel != nil {
		out := make([]int64, 0, sp.distinct)
		for _, i := range rng.Perm(len(sp.panel)) {
			if len(out) == sp.distinct {
				break
			}
			out = append(out, sp.panel[i])
		}
		return out
	}
	seen := map[int64]bool{}
	var out []int64
	for len(out) < sp.distinct {
		s := rng.Int63n(1<<31) + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// setup returns the base setup of a pass; each key carries its own seed.
func (sp leagueSpec) setup() experiments.Setup {
	s := experiments.DefaultSetup()
	s.NumEvents = sp.events
	s.Engine = sim.Lockstep
	return s
}

// passResult is one league pass: results in key order plus the runner's
// ledger.
type passResult struct {
	results []metrics.Results
	ledger  runner.Ledger
	err     error
}

// leaguePass executes the plan once through a fresh Sweep.
func leaguePass(ctx context.Context, s experiments.Setup, keys []experiments.RunKey, nWorkers int) passResult {
	var pr passResult
	sw := experiments.NewSweepConfig(s, runner.Config[experiments.RunKey]{Workers: nWorkers})
	vals, err := sw.Results(ctx, keys)
	pr.ledger = sw.Ledger()
	if err != nil {
		pr.err = err
		return pr
	}
	pr.results = make([]metrics.Results, len(keys))
	for i, k := range keys {
		pr.results[i] = vals[k]
	}
	return pr
}

// checkResults applies the per-run correctness gate: every result's
// accounting identities hold. It returns the number of failing results.
func checkResults(o *outcome, where string, rs []metrics.Results) int {
	bad := 0
	for i := range rs {
		if err := rs[i].Check(); err != nil {
			o.fail("%s: %s/%s: %v", where, rs[i].System, rs[i].Environment, err)
			bad++
		}
	}
	return bad
}

// qzOutcome pools the qz runs' interesting-input accounting.
type qzOutcome struct{ discarded, interesting, highQ, reported int }

func (q *qzOutcome) add(r *metrics.Results) {
	if r.System != experiments.SysQuetzal {
		return
	}
	q.discarded += r.InterestingDiscarded()
	q.interesting += r.InterestingArrivals
	q.highQ += r.HighQInteresting
	q.reported += r.ReportedInteresting()
}

func ratioOf(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// keys is the league plan once per distinct seed, seed-major.
func (sp leagueSpec) keys(seeds []int64) []experiments.RunKey {
	plan := experiments.LeaguePlan(experiments.LeaguePolicies, sp.envs)
	keys := make([]experiments.RunKey, 0, len(plan)*len(seeds))
	for _, s := range seeds {
		for _, k := range plan {
			k.Seed = s
			keys = append(keys, k)
		}
	}
	return keys
}

// setupKeys is the keys set-up constructs: the runs of up to three seeds,
// enough to time but a fraction of the work.
func setupKeys(keys []experiments.RunKey, seeds int) []experiments.RunKey {
	return keys[:len(keys)/seeds*min(seeds, 3)]
}

func runLeague(ctx context.Context, p params, sp leagueSpec) (*outcome, error) {
	seeds := sp.seeds(p.seed)
	keys := sp.keys(seeds)
	base := sp.setup()
	if p.traced {
		return traceLeague(ctx, p, sp, base, keys)
	}
	o := &outcome{metrics: map[string]float64{}}

	// Set-up: construct runs — traces, controller, machine — without
	// running them. The construction is the benchmark's buildRun, which
	// makes the calls Setup.Execute makes; checkBuildRun below pins that it
	// builds the runs the program runs.
	var ops batchOps
	setupS, err := timeSetup(p.size.setupReps, nil, func() error {
		for _, k := range setupKeys(keys, len(seeds)) {
			if _, err := buildRun(base, k); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	// One operation is one Sweep over every seed's league; each repeats
	// the first bit for bit.
	var qz qzOutcome
	var first []metrics.Results
	heap := startHeapSampler()
	err = measureLoop(p.seconds, func(op int) error {
		return ops.run(func() (float64, int, bool, error) {
			pr := leaguePass(ctx, base, keys, 1)
			o.attempted += len(keys)
			if pr.err != nil {
				o.fail("sweep %d: %v", op, pr.err)
				return 0, 0, false, nil
			}
			bad := checkResults(o, fmt.Sprintf("sweep %d", op), pr.results)
			simS := 0.0
			for j := range pr.results {
				simS += pr.results[j].SimSeconds
			}
			d, err := digestJSON(pr.results)
			if err != nil {
				return 0, 0, false, err
			}
			switch {
			case op == 0:
				o.digest = d
				first = pr.results
				for j := range pr.results {
					qz.add(&pr.results[j])
				}
			case d != o.digest:
				o.fail("sweep %d: results differ from the first sweep", op)
				bad++
			}
			return simS, len(keys), bad == 0, nil
		})
	}, 1)
	peak := heap.peakMiB()
	if err != nil {
		return nil, err
	}
	if first != nil {
		n := len(keys) / len(seeds)
		if err := checkBuildRun(ctx, o, base, keys[:n], first[:n]); err != nil {
			return nil, err
		}
	}
	o.metrics["setup_s"] = setupS
	ops.fill(o.metrics)
	o.metrics["peak_heap_mib"] = peak
	o.metrics["discard_frac"] = ratioOf(qz.discarded, qz.interesting)
	o.metrics["highq_share"] = ratioOf(qz.highQ, qz.reported)
	return o, nil
}

// checkBuildRun runs keys through buildRun, the construction set-up times,
// and fails the gate for every run whose results differ from the Sweep's
// (want, in key order). Untimed: it keeps setup_s tied to the program's
// own construction of runs.
func checkBuildRun(ctx context.Context, o *outcome, s experiments.Setup, keys []experiments.RunKey, want []metrics.Results) error {
	for i, k := range keys {
		o.attempted++
		simulator, err := buildRun(s, k)
		if err != nil {
			return err
		}
		res, err := simulator.RunContext(ctx)
		if err != nil {
			return err
		}
		res.System = k.System
		got, err := digestJSON(res)
		if err != nil {
			return err
		}
		if w, _ := digestJSON(want[i]); got != w {
			o.fail("set-up's construction of %s runs differently from the Sweep's", k)
		}
	}
	return nil
}

// resolve applies a league key's only deviation from the base setup, its
// seed.
func resolve(s experiments.Setup, k experiments.RunKey) experiments.Setup {
	if k.Seed != 0 {
		s.Seed = k.Seed
	}
	return s
}

// capturePeriod mirrors Setup's default capture period (1 FPS).
func capturePeriod(s experiments.Setup) float64 {
	if s.CapturePeriod > 0 {
		return s.CapturePeriod
	}
	return 1
}

// buildRun assembles run k through sim.New, the path a Sweep takes, without
// running it.
func buildRun(s experiments.Setup, k experiments.RunKey) (*sim.Simulator, error) {
	s = resolve(s, k)
	power, events := s.Traces(k.Env)
	app := s.Profile.PersonDetectionApp()
	ctl, bufCap, err := s.Controller(k.System, app, power, events)
	if err != nil {
		return nil, err
	}
	return sim.New(runConfig(s, k, app, ctl, power, events, bufCap))
}

// runConfig is the sim.Config Setup.Execute builds for a key without
// deviations.
func runConfig(s experiments.Setup, k experiments.RunKey, app *model.App, ctl core.Controller,
	power trace.PowerTrace, events *trace.EventTrace, bufCap int) sim.Config {
	cfg := sim.Config{
		Profile:        s.Profile,
		App:            app,
		Controller:     ctl,
		Power:          power,
		Events:         events,
		Engine:         s.Engine,
		CapturePeriod:  capturePeriod(s),
		StepDt:         s.StepDt,
		BufferCapacity: bufCap,
		Seed:           s.Seed + 7,
		Environment:    k.Env.Name,
		Faults:         k.Env.Faults,
	}
	if s.Faults.Enabled() {
		cfg.Faults = s.Faults
	}
	return cfg
}

// traceLeague is the traced run: every seed's runs once untraced through a
// serial Sweep, then once traced through the serial mirror. The two
// digests must agree, and equal the untraced run's.
func traceLeague(ctx context.Context, p params, sp leagueSpec, base experiments.Setup, keys []experiments.RunKey) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	lt := newLayerTimes()
	var simS float64
	var runs, decisions, replayed int

	t0 := time.Now()
	pr := leaguePass(ctx, base, keys, 1)
	wallU := time.Since(t0)
	o.attempted += len(keys)
	if pr.err != nil {
		return nil, fmt.Errorf("untraced sweep: %w", pr.err)
	}
	checkResults(o, "untraced sweep", pr.results)

	epoch := time.Now()
	traced := make([]metrics.Results, len(keys))
	for j, k := range keys {
		o.attempted++
		id := k.String()
		st, err := mirrorRun(ctx, base, k, id, lt)
		if err != nil {
			o.fail("traced %s: %v", id, err)
			continue
		}
		traced[j] = st.res
		runs++
		simS += st.res.SimSeconds
		decisions += st.decisions
		replayed += st.replayed
		if st.decisions > st.res.SchedInvocations {
			o.fail("traced %s: %d NextJob calls exceed %d scheduler invocations", id, st.decisions, st.res.SchedInvocations)
		}
	}
	wallT := time.Since(epoch)
	checkResults(o, "traced sweep", traced)
	du, err := digestJSON(pr.results)
	if err != nil {
		return nil, err
	}
	dt, err := digestJSON(traced)
	if err != nil {
		return nil, err
	}
	if du != dt {
		o.fail("traced results differ from untraced")
	}
	o.digest = du
	ledger := pr.ledger
	if runs == 0 || wallT <= 0 {
		return nil, errNoWork
	}
	if err := lt.writeSpans(p.workDir, fmt.Sprintf("spans-%s-%d.json", sp.name, p.seed), epoch); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	coreNs := lt.ns["core"]
	inv := lt.ns["invariant"]
	engineSelf := lt.ns["run"] - coreNs - inv
	n := float64(runs)
	w := float64(wallT)
	m := o.metrics
	m["core.ns_per_decision"] = float64(lt.ns["core.decide"]) / max(float64(decisions), 1)
	m["core.decisions_per_run"] = float64(decisions) / n
	m["core.share"] = float64(coreNs) / w
	m["engine.ns_per_sim_s"] = float64(engineSelf) / simS
	m["engine.share"] = float64(engineSelf) / w
	m["engine.replayed_steps_per_run"] = float64(replayed) / n
	m["engine.allocs_per_run"] = float64(lt.allocs["run"]) / n
	m["invariant.ns_per_sim_s"] = float64(inv) / simS
	m["invariant.share"] = float64(inv) / w
	m["trace.ns_per_run"] = float64(lt.ns["trace"]) / n
	m["trace.allocs_per_run"] = float64(lt.allocs["trace"]) / n
	m["policy.build_ns"] = float64(lt.ns["policy"]) / n
	m["sim.new_ns"] = float64(lt.ns["sim.new"]) / n
	m["sim.new_allocs"] = float64(lt.allocs["sim.new"]) / n
	m["setup.share"] = float64(lt.sum("trace", "policy", "sim.new")) / w
	m["runner.queue_wait_ms"] = float64(ledger.QueueWait) / float64(time.Millisecond) / max(float64(ledger.Executed), 1)
	m["runner.executed"] = float64(ledger.Executed)
	m["runner.cache_hits"] = float64(ledger.CacheHits)
	m["bench.trace_overhead_frac"] = float64(wallT-wallU) / float64(wallU)
	m["bench.unattributed_frac"] = 1 - float64(lt.sum("trace", "policy", "sim.new", "run"))/w
	return o, nil
}

// mirrorStats is one traced run's outcome.
type mirrorStats struct {
	res                 metrics.Results
	decisions, replayed int
}

// mirrorRun executes one league run through the engine directly, with each
// layer timed: trace generation, policy build, machine construction (as
// sim.New builds it with checks on), and the engine run with the
// controller and invariant checker wrapped.
func mirrorRun(ctx context.Context, s experiments.Setup, k experiments.RunKey, id string, lt *layerTimes) (mirrorStats, error) {
	s = resolve(s, k)
	var st mirrorStats
	var power trace.PowerTrace
	var events *trace.EventTrace
	lt.time("trace", id, func() { power, events = s.Traces(k.Env) })

	var ctl core.Controller
	var bufCap int
	var err error
	app := s.Profile.PersonDetectionApp()
	lt.time("policy", id, func() { ctl, bufCap, err = s.Controller(k.System, app, power, events) })
	if err != nil {
		return st, err
	}
	tc := &timedController{inner: ctl}
	cfg := runConfig(s, k, app, tc, power, events, bufCap)

	var m *engine.Machine
	var inv *timedInvariant
	lt.time("sim.new", id, func() {
		m, err = engine.New(engine.Config{
			Profile:        cfg.Profile,
			App:            cfg.App,
			Controller:     cfg.Controller,
			Power:          cfg.Power,
			Events:         cfg.Events,
			CapturePeriod:  cfg.CapturePeriod,
			StepDt:         cfg.StepDt,
			BufferCapacity: cfg.BufferCapacity,
			Seed:           cfg.Seed,
			Environment:    cfg.Environment,
			Faults:         cfg.Faults,
		})
		if err != nil {
			return
		}
		icfg := invariant.Config{}
		if cfg.Faults.Enabled() {
			icfg.MeasPerSampleJ, _ = cfg.Faults.MeasCost()
			icfg.DropoutWindows = cfg.Faults.Windows(m.Duration())
		}
		inv = &timedInvariant{inner: engine.InvariantObserver{C: invariant.New(icfg)}}
		m.Observe(inv)
	})
	if err != nil {
		return st, err
	}

	lt.time("run", id, func() { st.res, err = m.Run(ctx, engine.StepperFor(cfg.Engine)) })
	if err != nil {
		return st, err
	}
	st.res.System = k.System
	lt.ns["core"] += tc.busy
	lt.ns["core.decide"] += tc.decide
	lt.ns["invariant"] += inv.busy()
	st.decisions = tc.decisions
	st.replayed = m.ReplayedSteps()
	return st, nil
}
