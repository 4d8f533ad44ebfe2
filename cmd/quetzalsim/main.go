// Command quetzalsim runs a single simulation of an energy-harvesting
// person-detection device under a chosen controller and environment, and
// prints the resulting metrics.
//
// Usage:
//
//	quetzalsim [-system qz|na|ad|cn|pzo|pzi|fixed-NN|qz-fcfs|mdp|ensure|interweave|...]
//	           [-policy NAME]   # alias for -system (the registry policy name)
//	           [-env more-crowded|crowded|less-crowded|msp430-crowded|surge|marathon]
//	           [-mcu apollo4|msp430] [-events N] [-seed N] [-cells N]
//	           [-capture SECONDS] [-v] [-json]
//	           [-stepper fixed|event|lockstep]
//	           [-faults SPEC] [-temp SPEC] [-meascost SPEC]
//	           [-timeline FILE.csv] [-timelinesvg FILE.svg]
//	           [-trace FILE.json] [-metrics FILE.txt] [-pprof HOST:PORT]
//
// Examples:
//
//	quetzalsim -system qz -env crowded -events 300
//	quetzalsim -policy mdp -env surge -events 300
//	quetzalsim -system na -env more-crowded -mcu msp430
//	quetzalsim -system fixed-50 -env less-crowded -v
//	quetzalsim -system qz -env crowded -stepper event   # event-driven engine (~100x faster)
//	quetzalsim -system qz -env crowded -trace run.json   # open in chrome://tracing
//	quetzalsim -fleet 100000 -system qz -env less-crowded -progress   # population sweep
//	quetzalsim -system ensure -env crowded -faults "task=100%,limit=2,dropout=30+10/120"
//	quetzalsim -system qz -env crowded -temp 45+5/3600 -meascost 250:20
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"quetzal/internal/device"
	"quetzal/internal/experiments"
	"quetzal/internal/faults"
	"quetzal/internal/metrics"
	"quetzal/internal/obs"
	"quetzal/internal/plot"
	"quetzal/internal/sim"
)

// resolveEnv maps the -env flag to an environment through the same gate the
// HTTP service uses, so the CLI and the wire accept the identical set (the
// full six-environment league gauntlet).
func resolveEnv(name string) (experiments.Environment, error) {
	env, ok := experiments.EnvByName(name)
	if !ok {
		names := make([]string, len(experiments.LeagueEnvironments))
		for i, e := range experiments.LeagueEnvironments {
			names[i] = e.Name
		}
		return experiments.Environment{}, fmt.Errorf("unknown environment %q; valid: %s",
			name, strings.Join(names, ", "))
	}
	return env, nil
}

// resolveSystem merges the -system and -policy spellings of the controller
// dimension: they are one axis (the policy registry name), so naming both
// with different values is a conflict, not a silent override.
func resolveSystem(system, policy string) (string, error) {
	if system != "" && policy != "" && system != policy {
		return "", fmt.Errorf("-system %q conflicts with -policy %q (they are aliases; set one)", system, policy)
	}
	if policy != "" {
		return policy, nil
	}
	if system != "" {
		return system, nil
	}
	return "qz", nil
}

// resolveMCU maps the -mcu flag to a device profile.
func resolveMCU(name string) (device.Profile, error) {
	switch name {
	case "apollo4":
		return device.Apollo4(), nil
	case "msp430":
		return device.MSP430(), nil
	case "stm32g0":
		return device.STM32G0(), nil
	default:
		return device.Profile{}, fmt.Errorf("unknown mcu %q", name)
	}
}

// validateObsFlags checks the observability flag set plus its interactions
// with the timeline flags; kept separate from main for table-driven tests.
func validateObsFlags(cli obs.CLI, timeline string) error {
	if err := cli.Validate(); err != nil {
		return err
	}
	if timeline != "" && (timeline == cli.Trace || timeline == cli.Metrics) {
		return fmt.Errorf("-timeline conflicts with -trace/-metrics on the same file %q", timeline)
	}
	return nil
}

func main() {
	var (
		system   = flag.String("system", "", `controller under test (default "qz"; see DESIGN.md for ids)`)
		policyID = flag.String("policy", "", "alias for -system: the policy registry name")
		envName  = flag.String("env", "crowded", "sensing environment")
		mcu      = flag.String("mcu", "apollo4", "device profile: apollo4, msp430 or stm32g0")
		events   = flag.Int("events", 300, "number of sensing events")
		seed     = flag.Int64("seed", 42, "trace and classifier seed")
		cells    = flag.Int("cells", experiments.ReferenceCells, "harvester cell count")
		capture  = flag.Float64("capture", 1, "capture period in seconds")
		verbose  = flag.Bool("v", false, "print full counters")
		timeline = flag.String("timeline", "", "write a per-second CSV timeline to this file")
		jsonOut  = flag.Bool("json", false, "emit the full result record as JSON")
		stepper  = flag.String("stepper", "", "time-advance engine: fixed (paper-faithful default), event (~100x faster), or lockstep (same stepper as event; the fleet default)")
		tlSVG    = flag.String("timelinesvg", "", "render the timeline as an SVG line chart (requires -timeline)")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON file (open in chrome://tracing)")
		metOut   = flag.String("metrics", "", "write a metrics text dump to this file after the run")
		pprofOn  = flag.String("pprof", "", "serve net/http/pprof on this host:port while the run executes")

		faultsF = flag.String("faults", "", `fault injection: "task=PCT[%][,limit=K][,dropout=START+DUR[/PERIOD]][,stuck=HIGH[:LOW]]"`)
		tempF   = flag.String("temp", "", `junction temperature °C: "C[+SWING[/PERIOD]]" (constant or diurnal, 25–50)`)
		measF   = flag.String("meascost", "", `per-sample measurement cost: "NJ[:US]" (energy nJ, latency µs)`)

		fleetN   = flag.Int("fleet", 0, "simulate a fleet of N heterogeneous devices and print the aggregate (0 = single run)")
		shard    = flag.Int("shard", 0, "fleet devices per shard (0 = default)")
		jitter   = flag.Float64("jitter", 0.1, "fleet per-device parameter jitter fraction")
		corr     = flag.Float64("correlation", 0, "fleet regional-sky correlation in (0,1] (0 = default)")
		progress = flag.Bool("progress", false, "log fleet shard progress to stderr")
	)
	flag.Parse()

	// Validate the engine name up front: a typo fails before any simulation.
	engine, err := experiments.ParseEngineKind(*stepper)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	systemID, err := resolveSystem(*system, *policyID)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// A spec given on the command line replaces any environment-level
	// spec (e.g. -env faulty) rather than merging with it.
	faultSpec, err := faults.FromFlags(*faultsF, *tempF, *measF)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *fleetN > 0 {
		ff := fleetFlags{devices: *fleetN, shard: *shard, jitter: *jitter,
			correlation: *corr, progress: *progress}
		if err := validateFleetFlags(ff, *timeline, *traceOut, *tlSVG); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// Fleet events default low (population sweeps): an unset -events
		// would make every device as long as a full single run.
		fleetEvents := 0
		if isFlagSet("events") {
			fleetEvents = *events
		}
		if err := runFleet(ff, systemID, *envName, fleetEvents, *seed, *stepper, faultSpec, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	env, err := resolveEnv(*envName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cli := obs.CLI{Trace: *traceOut, Metrics: *metOut, Pprof: *pprofOn}
	if err := validateObsFlags(cli, *timeline); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	setup := experiments.DefaultSetup()
	setup.NumEvents = *events
	setup.Seed = *seed
	setup.Cells = *cells
	setup.CapturePeriod = *capture
	setup.Engine = engine
	setup.Profile, err = resolveMCU(*mcu)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if addr, stop, perr := cli.StartPprof(); perr != nil {
		fmt.Fprintln(os.Stderr, perr)
		os.Exit(1)
	} else if addr != "" {
		defer stop()
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", addr)
	}

	// Sinks requested on the command line; nil entries stay unattached.
	var sinks struct {
		timeline *os.File
		trace    *os.File
		reg      *obs.Registry
	}
	openOut := func(path string) *os.File {
		f, ferr := os.Create(path)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		return f
	}
	if *timeline != "" {
		sinks.timeline = openOut(*timeline)
		defer sinks.timeline.Close()
	}
	if cli.Trace != "" {
		sinks.trace = openOut(cli.Trace)
		defer sinks.trace.Close()
	}
	if cli.Metrics != "" {
		sinks.reg = obs.NewRegistry()
	}

	var res metrics.Results
	if sinks.timeline != nil || sinks.trace != nil || sinks.reg != nil || faultSpec.Enabled() {
		res, err = setup.RunWith(context.Background(), systemID, env, func(c *sim.Config) {
			if sinks.timeline != nil {
				c.Timeline = sinks.timeline
			}
			if sinks.trace != nil {
				c.Trace = sinks.trace
			}
			if sinks.reg != nil {
				c.Metrics = sinks.reg
			}
			if faultSpec.Enabled() {
				c.Faults = faultSpec
			}
		})
	} else {
		res, err = setup.Run(systemID, env)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if sinks.reg != nil {
		if err := obs.WriteMetricsFile(cli.Metrics, sinks.reg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *tlSVG != "" {
		if *timeline == "" {
			fmt.Fprintln(os.Stderr, "-timelinesvg requires -timeline")
			os.Exit(2)
		}
		if err := renderTimelineSVG(*timeline, *tlSVG); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Println(res.String())
	fmt.Printf("  discarded: %.1f%% of interesting arrivals (IBO %.1f%%, false negatives %.1f%%)\n",
		res.DiscardedFraction()*100, res.IBOFraction()*100,
		100*float64(res.FalseNegatives)/max1(res.InterestingArrivals))
	fmt.Printf("  reported:  %d interesting (%.1f%% high quality), %d packets total\n",
		res.ReportedInteresting(), res.HighQualityShare()*100, res.TotalPackets())
	if *verbose {
		fmt.Printf("  captures: %d (missed %d)  arrivals: %d (interesting %d)\n",
			res.Captures, res.CaptureMisses, res.Arrivals, res.InterestingArrivals)
		fmt.Printf("  jobs: %d (degraded %d)  IBO predictions: %d (averted %d)\n",
			res.JobsCompleted, res.Degradations, res.IBOPredictions, res.IBOsAverted)
		fmt.Printf("  scheduler: %d invocations, overhead %.3f s / %.3g J\n",
			res.SchedInvocations, res.OverheadSeconds, res.OverheadJoules)
		fmt.Printf("  energy: harvested %.2f J, consumed %.2f J, %d brownouts\n",
			res.HarvestedJoules, res.ConsumedJoules, res.Brownouts)
		fmt.Printf("  simulated: %.0f s\n", res.SimSeconds)
	}
}

// renderTimelineSVG converts a timeline CSV (t_s,power_mw,store_mj,
// occupancy,state) into a line chart.
func renderTimelineSVG(csvPath, svgPath string) error {
	f, err := os.Open(csvPath)
	if err != nil {
		return err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return err
	}
	if len(rows) < 3 {
		return fmt.Errorf("timeline too short to chart (%d rows)", len(rows))
	}
	var xs, power, store, occ []float64
	for _, row := range rows[1:] {
		if len(row) < 5 {
			continue
		}
		t, e1 := strconv.ParseFloat(row[0], 64)
		p, e2 := strconv.ParseFloat(row[1], 64)
		st, e3 := strconv.ParseFloat(row[2], 64)
		o, e4 := strconv.ParseFloat(row[3], 64)
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil {
			continue
		}
		xs = append(xs, t)
		power = append(power, p)
		store = append(store, st)
		occ = append(occ, o)
	}
	chart := &plot.LineChart{
		Title:  "device timeline",
		XLabel: "each series normalised to its own maximum",
		X:      xs,
		Series: []plot.Series{
			{Name: "input power (mW)", Values: power},
			{Name: "store energy (mJ)", Values: store},
			{Name: "buffer occupancy", Values: occ},
		},
	}
	out, err := os.Create(svgPath)
	if err != nil {
		return err
	}
	defer out.Close()
	return chart.WriteSVG(out)
}

// isFlagSet reports whether a flag was passed explicitly on the command
// line (as opposed to holding its default).
func isFlagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func max1(v int) float64 {
	if v == 0 {
		return 1
	}
	return float64(v)
}
