// Command perfbench is the repository benchmark: one command that runs one
// workload, checks the program's outputs, and prints every end-to-end metric
// (untraced run) or every per-layer metric (traced run) by name with its
// unit. BENCHMARK.json at the repository root defines the workloads, the
// metrics and their bounds; README.md in this directory explains each one.
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {NAME: {"value": V, "unit": U}, ...}}
//
// A run whose correctness gate fails still prints its result, with
// "correct": false, and exits 1. Bad arguments exit 2 without a result.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, on every workload.
// README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_s_per_s", "s/s"},
	{"devices_per_s", "1/s"},
	{"goodput_rps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"peak_heap_mib", "MiB"},
	{"discard_frac", "frac"},
	{"highq_share", "frac"},
}

// perLayer are the metrics every traced run prints. A layer a workload
// does not execute reports 0.
var perLayer = []metricDef{
	{"core.ns_per_decision", "ns"},
	{"core.decisions_per_run", "count"},
	{"core.share", "frac"},
	{"engine.ns_per_sim_s", "ns"},
	{"engine.share", "frac"},
	{"engine.replayed_steps_per_run", "count"},
	{"engine.allocs_per_run", "count"},
	{"invariant.ns_per_sim_s", "ns"},
	{"invariant.share", "frac"},
	{"trace.ns_per_run", "ns"},
	{"trace.allocs_per_run", "count"},
	{"policy.build_ns", "ns"},
	{"sim.new_ns", "ns"},
	{"sim.new_allocs", "count"},
	{"fleet.setup_ns_per_device", "ns"},
	{"fleet.run_ns_per_device", "ns"},
	{"fleet.fold_ns_per_device", "ns"},
	{"runner.queue_wait_ms", "ms"},
	{"runner.executed", "count"},
	{"runner.cache_hits", "count"},
	{"service.handler_ms_p50", "ms"},
	{"service.sim_ms_p50", "ms"},
	{"service.hot_ms_p50", "ms"},
	{"service.warm_ms_p50", "ms"},
	{"service.cold_ms_p99", "ms"},
	{"service.coalesced", "count"},
	{"service.shed", "count"},
	{"service.shed_frac", "frac"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.puts", "count"},
	{"store.claim_losses", "count"},
	{"store.open_ms", "ms"},
	{"setup.share", "frac"},
	{"bench.generator_lag_ms_p99", "ms"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.unattributed_frac", "frac"},
}

// workDir is where a run writes scratch files (stores, span traces),
// relative to the checkout root the benchmark runs from.
const workDir = ".bench_build"

// params are one invocation's arguments, plus the directory the benchmark
// may write scratch files into.
type params struct {
	seed    int64
	seconds float64
	traced  bool
	workDir string
	size    sizes
}

// outcome is what a workload run returns: the correctness tally, the
// metric values, and the simulation digest.
type outcome struct {
	attempted int
	failed    int
	problems  []string // gate violations, reported on stderr
	metrics   map[string]float64
	digest    string
}

// fail records one gate violation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type workload func(ctx context.Context, p params) (*outcome, error)

var workloads = map[string]workload{
	"league-table1":  runLeagueTable1,
	"league-faulty":  runLeagueFaulty,
	"fleet-solar":    runFleet,
	"quetzald-mixed": runQuetzald,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render builds the result line: exactly the metrics of the run's kind,
// each with its unit. A metric the workload left unset is a bug in the
// benchmark, reported as an error rather than printed as 0.
func render(o *outcome, traced bool) (resultLine, error) {
	defs, kind := endToEnd, "end-to-end"
	if traced {
		defs, kind = perLayer, "per-layer"
	}
	line := resultLine{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			if !traced {
				return line, fmt.Errorf("%s metric %s not produced", kind, d.name)
			}
			v = 0 // layer not exercised by this workload
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return line, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured duration of the run, seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	p := params{seed: *seed, seconds: *seconds, traced: *trace == 1, workDir: workDir, size: defaultSizes}
	o, err := w(context.Background(), p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := render(o, p.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, pr := range o.problems {
		fmt.Fprintf(stderr, "perfbench: %s: correctness: %s\n", *name, pr)
	}
	if o.digest != "" {
		fmt.Fprintf(stdout, "results_sha256 %s seed=%d %s\n", *name, *seed, o.digest)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// workers is quetzald-mixed's concurrency, for the service's workers and
// the client's connections alike: one per CPU. Batch workloads run
// serially (see batchOps).
func workers() int { return runtime.NumCPU() }

// seedRand derives the workload's input stream from the benchmark seed and
// a per-workload salt, so workloads sharing a seed draw unrelated inputs.
func seedRand(seed int64, salt string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s/%d", salt, seed)))
	var s int64
	for _, b := range h[:8] {
		s = s<<8 | int64(b)
	}
	return rand.New(rand.NewSource(s))
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// timeSetup runs setup reps times and returns the median process CPU time
// one set-up took, in seconds. Set-up is repeated because a single set-up
// is short enough for noise to dominate it, and timed in CPU time because
// wall time on a shared VM includes whatever the hypervisor steals. reset,
// when set, runs untimed before every rep but the first, to tear down what
// the previous rep built. Each rep starts after a collection, so no rep
// pays for the garbage of the reps before it.
func timeSetup(reps int, reset, setup func() error) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		if i > 0 && reset != nil {
			if err := reset(); err != nil {
				return 0, err
			}
		}
		runtime.GC()
		c0 := cpuSeconds()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, cpuSeconds()-c0)
	}
	return median(ds), nil
}

// measureLoop runs op until the measured window of wall time is spent: at
// least minOps times, and again only while another op as long as the last
// one still fits in the window.
func measureLoop(seconds float64, op func(i int) error, minOps int) error {
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		if err := op(i); err != nil {
			return err
		}
		d := time.Since(t0).Seconds()
		if i+1 >= minOps && time.Since(start).Seconds()+d > seconds {
			return nil
		}
	}
}

// batchOps collects the per-operation figures of a batch workload, where
// one operation is one league sweep or one fleet run. Batch workloads run
// serially and time each operation in process CPU time: on an idle core
// that is its latency, and unlike wall time on a shared VM it excludes
// time the hypervisor steals. Rates are medians over operations.
type batchOps struct {
	sec, simS, devs, good []float64
}

// run times one operation: op returns the simulated device-seconds and
// device runs it delivered and whether it passed the correctness gate.
func (b *batchOps) run(op func() (simS float64, devices int, ok bool, err error)) error {
	c0 := cpuSeconds()
	simS, devices, ok, err := op()
	sec := cpuSeconds() - c0
	if err != nil {
		return err
	}
	good := 0.0
	if ok {
		good = 1
	}
	b.sec = append(b.sec, sec)
	b.simS = append(b.simS, simS)
	b.devs = append(b.devs, float64(devices))
	b.good = append(b.good, good)
	return nil
}

// fill sets the rate and latency metrics.
func (b *batchOps) fill(m map[string]float64) {
	var ms, simRate, devRate, opRate []float64
	for i, sec := range b.sec {
		ms = append(ms, sec*1000)
		simRate = append(simRate, b.simS[i]/sec)
		devRate = append(devRate, b.devs[i]/sec)
		opRate = append(opRate, b.good[i]/sec)
	}
	m["sim_s_per_s"] = median(simRate)
	m["devices_per_s"] = median(devRate)
	m["goodput_rps"] = median(opRate)
	m["p50_ms"] = quantile(ms, 0.50)
	m["p99_ms"] = quantile(ms, 0.99)
}

// heapSampler tracks the heap footprint while a measured phase runs: the
// heap memory the Go runtime holds and has not returned to the OS (spans
// in use, free or unused), sampled every 10 ms. Unlike the bytes in live
// objects, which swing with where a collection happens to land, the
// footprint moves only when the heap really grows.
type heapSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
	}
	read := func() {
		metrics.Read(s)
		v := s[0].Value.Uint64() + s[1].Value.Uint64() + s[2].Value.Uint64()
		h.samples = append(h.samples, float64(v)/(1<<20))
	}
	read()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// peakMiB stops the sampler and returns the footprint's 90th percentile
// over time in MiB: the level the heap held for the busiest tenth of the
// run, which a momentary spike, such as one late collection, does not set.
func (h *heapSampler) peakMiB() float64 {
	close(h.stop)
	h.done.Wait()
	return quantile(h.samples, 0.9)
}

// digestJSON returns the hex sha256 of v's JSON encoding.
func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// combineDigests folds per-operation digests into one workload digest.
func combineDigests(ds []string) string {
	sum := sha256.Sum256([]byte(strings.Join(ds, "\n")))
	return hex.EncodeToString(sum[:])
}

// errNoWork is returned when a run completes without attempting anything,
// which would make every rate meaningless.
var errNoWork = errors.New("no operation completed in the measured window")
