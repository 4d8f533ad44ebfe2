package main

// Benchmark-side instrumentation for the traced run. Every layer is timed
// from outside, by wrapping the public seams the program already has: a
// core.Controller wrapper, an engine.Observer wrapper around the invariant
// checker, and spans around each public call (trace generation, policy
// build, machine construction, engine run, fleet fold). Nothing inside the
// program's packages is edited, so the untraced run executes exactly the
// code a user runs.

import (
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"quetzal/internal/buffer"
	"quetzal/internal/core"
	"quetzal/internal/engine"
	"quetzal/internal/obs"
)

// invariantSampleEvery is the sampling period of the invariant observer's
// timing: one OnStep call in this many is timed and the sum is scaled back
// up. Crawl regimes commit millions of 1 ms steps, and two clock reads per
// step would cost as much as the checker itself.
const invariantSampleEvery = 16

// layerTimes accumulates busy time and allocations per layer over a traced
// run. It is owned by one goroutine: traced runs are serial, so spans tile
// the wall clock and the layer shares add up to the whole. A nil
// *layerTimes runs the timed calls untimed.
type layerTimes struct {
	ns     map[string]time.Duration
	allocs map[string]uint64
	spans  []span
	ac     []metrics.Sample
}

// span is one recorded call at a layer boundary, kept in memory and written
// out when the run ends.
type span struct {
	name  string
	start time.Time
	dur   time.Duration
	run   string // identifier shared by the spans of one simulation run
}

func newLayerTimes() *layerTimes {
	return &layerTimes{
		ns:     map[string]time.Duration{},
		allocs: map[string]uint64{},
		ac:     []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

// heapAllocs reads the process-wide count of heap allocations. Traced runs
// are serial, so the delta around a call is that call's allocations (plus
// whatever the runtime allocates meanwhile, which is negligible).
func (l *layerTimes) heapAllocs() uint64 {
	metrics.Read(l.ac)
	return l.ac[0].Value.Uint64()
}

// time runs fn as one span of layer, charging its duration and
// allocations to the layer, and returns the duration.
func (l *layerTimes) time(layer, run string, fn func()) time.Duration {
	if l == nil {
		fn()
		return 0
	}
	a0 := l.heapAllocs()
	start := time.Now()
	fn()
	d := time.Since(start)
	l.allocs[layer] += l.heapAllocs() - a0
	l.ns[layer] += d
	l.spans = append(l.spans, span{name: layer, start: start, dur: d, run: run})
	return d
}

// sum returns the busy time recorded for the named layers.
func (l *layerTimes) sum(layers ...string) time.Duration {
	var d time.Duration
	for _, n := range layers {
		d += l.ns[n]
	}
	return d
}

// writeSpans renders the recorded spans as Chrome trace_event JSON under
// dir (created if needed); a write failure is reported, not fatal, since
// the numbers are already in hand.
func (l *layerTimes) writeSpans(dir, name string, epoch time.Time) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	t := obs.NewSpanTrace(f, epoch)
	for _, s := range l.spans {
		t.Record(s.name, s.start, s.dur, [2]string{"run", s.run})
	}
	if err := t.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedController forwards every core.Controller call to the wrapped
// controller and times it. It also forwards the two optional markers the
// engine probes for, so wrapping changes no engine decision: a controller
// that does not implement them reports false / ignores the temperature,
// exactly as the engine treats a controller without them.
type timedController struct {
	inner     core.Controller
	busy      time.Duration // all controller calls
	decide    time.Duration // NextJob only
	decisions int
}

var (
	_ core.Controller       = (*timedController)(nil)
	_ core.ReplaySensitive  = (*timedController)(nil)
	_ core.TemperatureAware = (*timedController)(nil)
)

func (c *timedController) Name() string { return c.inner.Name() }

func (c *timedController) NextJob(env core.Env, buf *buffer.Buffer) (core.Decision, bool) {
	start := time.Now()
	d, ok := c.inner.NextJob(env, buf)
	el := time.Since(start)
	c.busy += el
	c.decide += el
	c.decisions++
	return d, ok
}

func (c *timedController) ObserveCapture(stored bool) {
	start := time.Now()
	c.inner.ObserveCapture(stored)
	c.busy += time.Since(start)
}

func (c *timedController) OnJobComplete(fb core.Feedback) {
	start := time.Now()
	c.inner.OnJobComplete(fb)
	c.busy += time.Since(start)
}

func (c *timedController) RatioOps() (int, bool) { return c.inner.RatioOps() }

func (c *timedController) ReplaySensitive() bool {
	rs, ok := c.inner.(core.ReplaySensitive)
	return ok && rs.ReplaySensitive()
}

func (c *timedController) SetTemperature(tempC float64) {
	if ta, ok := c.inner.(core.TemperatureAware); ok {
		ta.SetTemperature(tempC)
	}
}

// timedInvariant wraps engine.InvariantObserver, timing a sample of its
// per-step calls and every end-of-run check. The machine no longer sees an
// InvariantObserver by type, so it also runs its own fallback
// Results.Check at the end of the run; that check is cheap and changes no
// result.
type timedInvariant struct {
	inner   engine.InvariantObserver
	steps   int
	sampled time.Duration
	finish  time.Duration
}

func (o *timedInvariant) OnStep(m *engine.Machine, dt float64) {
	o.steps++
	if o.steps%invariantSampleEvery != 0 {
		o.inner.OnStep(m, dt)
		return
	}
	start := time.Now()
	o.inner.OnStep(m, dt)
	o.sampled += time.Since(start)
}

func (o *timedInvariant) Horizon(now float64) float64 { return o.inner.Horizon(now) }

func (o *timedInvariant) OnFinish(m *engine.Machine) error {
	start := time.Now()
	err := o.inner.OnFinish(m)
	o.finish += time.Since(start)
	return err
}

// busy estimates the observer's total time from the sampled steps.
func (o *timedInvariant) busy() time.Duration {
	return o.sampled*invariantSampleEvery + o.finish
}
