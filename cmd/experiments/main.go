// Command experiments regenerates the paper's evaluation tables and
// figures. Each figure id maps to an experiment in internal/experiments;
// see DESIGN.md for the index.
//
// Figures are declarative run plans resolved against one shared sweep: the
// unique (system, environment, setup) runs all requested figures need are
// executed exactly once on a worker pool, figures render concurrently, and
// the output is byte-identical at any -parallel setting.
//
// Usage:
//
//	experiments [-fig all|2b|3|8|9|10|11|11c|12|13|14|circuit|table1|...]
//	            [-league] [-policy qz,na,mdp,...]
//	            [-events N] [-seed N] [-mcu apollo4|msp430] [-csv]
//	            [-parallel N] [-timeout D] [-progress]
//	            [-engine fixed|event|lockstep]
//	            [-faults SPEC] [-temp SPEC] [-meascost SPEC]
//	            [-trace FILE.json] [-metrics FILE.txt] [-pprof HOST:PORT]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"quetzal/internal/device"
	"quetzal/internal/experiments"
	"quetzal/internal/faults"
	"quetzal/internal/obs"
	"quetzal/internal/report"
	"quetzal/internal/runner"
)

// validateObsFlags checks the shared observability flag set plus the
// experiments-specific interaction with -svg (which names a directory, not a
// file — sharing its path with a sink would make MkdirAll fail mid-sweep).
// Kept separate from main for table-driven tests.
func validateObsFlags(cli obs.CLI, svgDir string) error {
	if err := cli.Validate(); err != nil {
		return err
	}
	if svgDir != "" && (cli.Trace == svgDir || cli.Metrics == svgDir) {
		return fmt.Errorf("-svg directory %q collides with a -trace/-metrics output path", svgDir)
	}
	return nil
}

// ledgerMetrics copies a finished sweep's ledger into a registry for the
// -metrics dump: run/cache/error counters, summed timings, and the per-run
// latency histogram.
func ledgerMetrics(reg *obs.Registry, l runner.Ledger) {
	reg.Counter("sweep_runs_executed_total").Add(int64(l.Executed))
	reg.Counter("sweep_cache_hits_total").Add(int64(l.CacheHits))
	reg.Counter("sweep_run_errors_total").Add(int64(l.Errors))
	reg.Gauge("sweep_run_seconds_total").Set(l.RunTime.Seconds())
	reg.Gauge("sweep_queue_wait_seconds_total").Set(l.QueueWait.Seconds())
	reg.Gauge("sweep_elapsed_seconds").Set(l.Elapsed.Seconds())
	if l.Latency != nil {
		reg.AddHistogram("sweep_run_latency_seconds", l.Latency)
	}
}

// figOrder is the canonical figure id order, used for "all" and for the
// -fig validation error message.
var figOrder = []string{"table1", "2b", "3", "8", "9", "10", "11", "11c", "12", "13",
	"14", "circuit", "jitter", "checkpoint", "mcus", "ladder", "buffer", "seeds"}

func main() {
	var (
		fig      = flag.String("fig", "all", "comma-separated figure ids to regenerate ("+strings.Join(figOrder, ",")+",all)")
		league   = flag.Bool("league", false, "render the policy league (all policies × all environments) instead of figures")
		policyF  = flag.String("policy", "", "comma-separated policies for -league (default: the full league field)")
		events   = flag.Int("events", 0, "events per run (0 = harness default 300; paper uses 1000)")
		seed     = flag.Int64("seed", 42, "trace and classifier seed")
		mcu      = flag.String("mcu", "apollo4", "device profile: apollo4 or msp430")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		md       = flag.Bool("md", false, "emit Markdown tables")
		svgDir   = flag.String("svg", "", "also write an SVG chart per figure into this directory")
		engine   = flag.String("engine", "", "time-advance engine: fixed (paper-faithful reference), event (~100x faster, statistically matching) or lockstep (same stepper as event); default fixed")
		parallel = flag.Int("parallel", 0, "concurrent simulations (0 = one per CPU)")
		timeout  = flag.Duration("timeout", 0, "per-run timeout, e.g. 30s (0 = none)")
		progress = flag.Bool("progress", false, "log each run to stderr as it completes")
		traceOut = flag.String("trace", "", "write a Chrome trace of the sweep's run schedule (wall-clock worker lanes)")
		metOut   = flag.String("metrics", "", "write sweep ledger metrics (runs, cache hits, latency histogram) to this file")
		pprofOn  = flag.String("pprof", "", "serve net/http/pprof on this host:port during the sweep")

		fleetN   = flag.Int("fleet", 0, "render a fleet comparison table over N devices per system instead of figures (0 = figure mode)")
		fleetEnv = flag.String("fleetenv", "less-crowded", "fleet environment")
		jitter   = flag.Float64("jitter", 0.1, "fleet per-device parameter jitter fraction")

		faultsF = flag.String("faults", "", `fault injection for every run: "task=PCT[%][,limit=K][,dropout=START+DUR[/PERIOD]][,stuck=HIGH[:LOW]]"`)
		tempF   = flag.String("temp", "", `junction temperature °C for every run: "C[+SWING[/PERIOD]]" (25–50)`)
		measF   = flag.String("meascost", "", `per-sample measurement cost for every run: "NJ[:US]" (energy nJ, latency µs)`)
	)
	flag.Parse()

	// A spec given on the command line replaces every environment's realism
	// spec for the whole sweep (including the faulty league environment).
	faultSpec, err := faults.FromFlags(*faultsF, *tempF, *measF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	if *fleetN > 0 {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		// -events 0 keeps the fleet default (short per-device runs).
		table, err := runFleetTable(ctx, *fleetN, *fleetEnv, *events, *seed, *jitter, *parallel, *progress, faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		var rerr error
		switch {
		case *csv:
			rerr = table.RenderCSV(os.Stdout)
		case *md:
			rerr = table.RenderMarkdown(os.Stdout)
		default:
			rerr = table.Render(os.Stdout)
		}
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", rerr)
			os.Exit(1)
		}
		return
	}

	// Validate and de-duplicate the figure list (or, in league mode, the
	// policy list) before any simulation starts: a typo should fail in
	// milliseconds, not partway through a long sweep.
	var ids []string
	var policies []string
	if *league {
		policies, err = parsePolicies(*policyF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
	} else {
		if *policyF != "" {
			fmt.Fprintln(os.Stderr, "experiments: -policy requires -league")
			os.Exit(2)
		}
		ids, err = parseFigs(*fig)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
	}
	kind, err := experiments.ParseEngineKind(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	cli := obs.CLI{Trace: *traceOut, Metrics: *metOut, Pprof: *pprofOn}
	if err := validateObsFlags(cli, *svgDir); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	setup := experiments.DefaultSetup()
	setup.Seed = *seed
	setup.Engine = kind
	setup.Faults = faultSpec
	if *events > 0 {
		setup.NumEvents = *events
	}
	switch *mcu {
	case "apollo4":
		setup.Profile = device.Apollo4()
	case "msp430":
		setup.Profile = device.MSP430()
	default:
		fmt.Fprintf(os.Stderr, "unknown mcu %q\n", *mcu)
		os.Exit(2)
	}

	if addr, stopPprof, perr := cli.StartPprof(); perr != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", perr)
		os.Exit(1)
	} else if addr != "" {
		defer stopPprof()
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", addr)
	}

	// -trace renders the sweep's wall-clock schedule: one span per executed
	// run, laid out on worker lanes. Recording happens in the serialized
	// OnEvent callback, which is exactly the concurrency discipline SpanTrace
	// requires.
	var span *obs.SpanTrace
	if cli.Trace != "" {
		f, ferr := os.Create(cli.Trace)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", ferr)
			os.Exit(1)
		}
		defer f.Close()
		span = obs.NewSpanTrace(f, time.Now())
	}

	cfg := runner.Config[experiments.RunKey]{Workers: *parallel, RunTimeout: *timeout}
	if *progress || span != nil {
		cfg.OnEvent = func(ev runner.Event[experiments.RunKey]) {
			if span != nil && !ev.Cached && ev.Err == nil {
				span.Record(fmt.Sprint(ev.Key), time.Now().Add(-ev.Duration), ev.Duration,
					[2]string{"queue_wait", ev.QueueWait.Round(time.Microsecond).String()})
			}
			if !*progress {
				return
			}
			switch {
			case ev.Cached:
				fmt.Fprintf(os.Stderr, "[cached] %v\n", ev.Key)
			case ev.Err != nil:
				fmt.Fprintf(os.Stderr, "[run %d] %v FAILED: %v\n", ev.Executed, ev.Key, ev.Err)
			default:
				fmt.Fprintf(os.Stderr, "[run %d] %v in %v\n",
					ev.Executed, ev.Key, ev.Duration.Round(time.Millisecond))
			}
		}
	}
	sw := experiments.NewSweepConfig(setup, cfg)

	// Finalize the obs sinks once the sweep is complete, before rendering
	// (which may os.Exit on a figure error — the trace and metrics should
	// survive a partial rendering failure).
	finalizeObs := func() {
		if span != nil {
			if err := span.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -trace: %v\n", err)
				os.Exit(1)
			}
		}
		if cli.Metrics != "" {
			reg := obs.NewRegistry()
			ledgerMetrics(reg, sw.Ledger())
			if err := obs.WriteMetricsFile(cli.Metrics, reg); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -metrics: %v\n", err)
				os.Exit(1)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *league {
		table, lerr := sw.League(ctx, policies)
		finalizeObs()
		if lerr != nil {
			fmt.Fprintf(os.Stderr, "experiments: league: %v\n", lerr)
			os.Exit(1)
		}
		var rerr error
		switch {
		case *csv:
			rerr = table.RenderCSV(os.Stdout)
		case *md:
			rerr = table.RenderMarkdown(os.Stdout)
		default:
			rerr = table.Render(os.Stdout)
		}
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "experiments: league: %v\n", rerr)
			os.Exit(1)
		}
		if !*csv && !*md {
			fmt.Printf("[sweep: %v, %d workers]\n", sw.Ledger(), sw.Workers())
		}
		return
	}

	// All figures run concurrently against the shared sweep; rendering
	// happens afterwards in the requested order, so output is deterministic
	// regardless of completion order.
	type figOut struct {
		tables []*report.Table
		err    error
		took   time.Duration
	}
	outs := make([]figOut, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			start := time.Now()
			tables, err := runFig(ctx, sw, id)
			outs[i] = figOut{tables: tables, err: err, took: time.Since(start)}
		}(i, id)
	}
	wg.Wait()

	finalizeObs()

	for i, id := range ids {
		out := outs[i]
		if out.err != nil {
			fmt.Fprintf(os.Stderr, "fig %s: %v\n", id, out.err)
			os.Exit(1)
		}
		for _, t := range out.tables {
			var rerr error
			switch {
			case *csv:
				rerr = t.RenderCSV(os.Stdout)
			case *md:
				rerr = t.RenderMarkdown(os.Stdout)
			default:
				rerr = t.Render(os.Stdout)
			}
			if rerr != nil {
				fmt.Fprintf(os.Stderr, "rendering fig %s: %v\n", id, rerr)
				os.Exit(1)
			}
		}
		if *svgDir != "" {
			if err := writeSVGs(*svgDir, id, out.tables); err != nil {
				fmt.Fprintf(os.Stderr, "svg for fig %s: %v\n", id, err)
				os.Exit(1)
			}
		}
		if !*csv && !*md {
			fmt.Printf("[fig %s done in %v]\n\n", id, out.took.Round(time.Millisecond))
		}
	}
	if !*csv && !*md {
		fmt.Printf("[sweep: %v, %d workers]\n", sw.Ledger(), sw.Workers())
	}
}

// parseFigs validates and de-duplicates a comma-separated figure id list.
// "all" (alone) expands to every figure. Unknown ids produce one error
// naming them all plus the valid set.
func parseFigs(arg string) ([]string, error) {
	valid := make(map[string]bool, len(figOrder))
	for _, id := range figOrder {
		valid[id] = true
	}
	var ids, unknown []string
	seen := make(map[string]bool)
	for _, raw := range strings.Split(arg, ",") {
		id := strings.TrimSpace(raw)
		switch {
		case id == "":
			continue
		case id == "all":
			for _, fid := range figOrder {
				if !seen[fid] {
					seen[fid] = true
					ids = append(ids, fid)
				}
			}
		case !valid[id]:
			unknown = append(unknown, fmt.Sprintf("%q", id))
		case !seen[id]:
			seen[id] = true
			ids = append(ids, id)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown figure id(s) %s; valid ids: %s, all",
			strings.Join(unknown, ", "), strings.Join(figOrder, ", "))
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no figure ids given; valid ids: %s, all", strings.Join(figOrder, ", "))
	}
	return ids, nil
}

// parsePolicies validates and de-duplicates the -league policy list against
// the registry, up front like -fig. Empty means the default league field
// (experiments.LeaguePolicies).
func parsePolicies(arg string) ([]string, error) {
	if strings.TrimSpace(arg) == "" {
		return nil, nil
	}
	var ids, unknown []string
	seen := make(map[string]bool)
	for _, raw := range strings.Split(arg, ",") {
		id := strings.TrimSpace(raw)
		switch {
		case id == "":
			continue
		case !experiments.ValidSystem(id):
			unknown = append(unknown, fmt.Sprintf("%q", id))
		case !seen[id]:
			seen[id] = true
			ids = append(ids, id)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown policy id(s) %s; valid ids: %s, fixed-NN",
			strings.Join(unknown, ", "), strings.Join(experiments.PolicyNames(), ", "))
	}
	return ids, nil
}

// chartSpec says how a figure's table maps onto a grouped bar chart:
// (categoryCol, seriesCol, valueCol, y label). Figures without an entry get
// no chart.
var chartSpecs = map[string][4]any{
	"3":          {0, 1, 2, "interesting inputs discarded"},
	"8":          {0, 1, 2, "interesting inputs discarded"},
	"9":          {0, 1, 2, "interesting inputs discarded"},
	"10":         {0, 1, 2, "interesting inputs discarded"},
	"11":         {0, 1, 2, "interesting inputs discarded"},
	"12":         {0, 1, 2, "interesting inputs discarded"},
	"13":         {0, 1, 2, "interesting inputs discarded"},
	"mcus":       {0, 1, 2, "interesting inputs discarded"},
	"jitter":     {0, 1, 2, "interesting inputs discarded"},
	"checkpoint": {0, 1, 2, "interesting inputs discarded"},
	"2b":         {0, -1, 4, "interesting inputs missed"},
	"11c":        {0, -1, 1, "interesting inputs discarded"},
	"ladder":     {0, -1, 1, "interesting inputs discarded"},
	"buffer":     {0, 1, 2, "interesting inputs discarded"},
	"14":         {0, -1, 1, "interesting inputs discarded"},
}

// writeSVGs renders the charted figures into dir.
func writeSVGs(dir, id string, tables []*report.Table) error {
	spec, ok := chartSpecs[id]
	if !ok {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range tables {
		chart, err := experiments.Chart(t, spec[0].(int), spec[1].(int), spec[2].(int), spec[3].(string))
		if err != nil {
			return err
		}
		name := fmt.Sprintf("fig%s.svg", id)
		if len(tables) > 1 {
			name = fmt.Sprintf("fig%s-%d.svg", id, i+1)
		}
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := chart.WriteSVG(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// runFig resolves one figure id against the shared sweep.
func runFig(ctx context.Context, sw *experiments.Sweep, id string) ([]*report.Table, error) {
	one := func(t *report.Table, err error) ([]*report.Table, error) {
		if err != nil {
			return nil, err
		}
		return []*report.Table{t}, nil
	}
	switch id {
	case "table1":
		return []*report.Table{sw.Setup.Table1()}, nil
	case "2b":
		return one(sw.Fig2b(ctx))
	case "3":
		return one(sw.Fig3(ctx))
	case "8":
		return one(sw.Fig8(ctx))
	case "9":
		return one(sw.Fig9(ctx))
	case "10":
		return one(sw.Fig10(ctx))
	case "11":
		return one(sw.Fig11(ctx))
	case "11c":
		return one(sw.Fig11c(ctx))
	case "12":
		return one(sw.Fig12(ctx))
	case "13":
		return one(sw.Fig13(ctx))
	case "14":
		return sw.Fig14(ctx)
	case "circuit":
		return experiments.CircuitStudy(), nil
	case "jitter":
		return one(sw.JitterStudy(ctx))
	case "checkpoint":
		return one(sw.CheckpointStudy(ctx))
	case "mcus":
		return one(sw.MCUStudy(ctx))
	case "ladder":
		return one(sw.LadderStudy(ctx))
	case "buffer":
		return one(sw.BufferStudy(ctx))
	case "seeds":
		return one(sw.SeedStudy(ctx))
	default:
		return nil, fmt.Errorf("unknown figure id %q", id)
	}
}
