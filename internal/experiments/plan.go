package experiments

// The run-plan layer: figures declare the RunKeys they need and render
// tables from a shared results map, instead of executing simulations
// inline. A Sweep owns the memoizing worker pool (internal/runner), so a
// `-fig all` sweep computes each unique (system, environment, setup) run
// exactly once, figures run concurrently, and — because every simulator
// RNG is seeded per run — the rendered tables are byte-identical at any
// worker count.

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"quetzal/internal/device"
	"quetzal/internal/energy"
	"quetzal/internal/faults"
	"quetzal/internal/metrics"
	"quetzal/internal/runner"
	"quetzal/internal/sim"
	"quetzal/internal/trace"
)

// Profile registry names accepted by RunKey.Profile.
const (
	ProfileApollo4       = "apollo4"
	ProfileMSP430        = "msp430"
	ProfileSTM32G0       = "stm32g0"
	ProfileApollo4MultiQ = "apollo4-multiq"
)

// ProfileByName resolves a registry name to a device profile. The registry
// exists so RunKey stays comparable: a Profile value holds slices and
// cannot be a map key.
func ProfileByName(name string) (device.Profile, bool) {
	switch name {
	case ProfileApollo4:
		return device.Apollo4(), true
	case ProfileMSP430:
		return device.MSP430(), true
	case ProfileSTM32G0:
		return device.STM32G0(), true
	case ProfileApollo4MultiQ:
		return device.Apollo4MultiQuality(), true
	}
	return device.Profile{}, false
}

// RunKey identifies one unique simulation run as a deviation from a base
// Setup: the zero value of every optional field means "use the base
// setup's value". Keys are comparable, so they address the sweep cache —
// two figures that need the same run share one execution.
type RunKey struct {
	System string
	Env    Environment

	// Setup-level deviations (zero → base setup value).
	Profile       string // registry name; see Profile* constants
	NumEvents     int
	Seed          int64
	Cells         int
	TaskWindow    int
	ArrivalWindow int
	CapturePeriod float64        // seconds
	Engine        sim.EngineKind // FixedIncrement (the zero value) → base

	// Simulator-level deviations (zero → none), covering the extension
	// studies' knobs.
	BufferCapacity     int
	Jitter             float64 // sim.Config.TexeJitterOverride
	Checkpoint         sim.CheckpointPolicy
	CheckpointInterval float64
	StoreCapacitance   float64 // farads; overrides the default store

	// Faults layers a hardware-realism scenario over the run (zero → the
	// environment's own spec, if any). faults.Spec is comparable, so keys
	// carrying one still address the sweep cache.
	Faults faults.Spec
}

// String renders the key compactly for progress lines and wrapped errors:
// "qz/crowded" plus any non-default fields.
func (k RunKey) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s", k.System, k.Env.Name)
	opt := func(format string, args ...any) { fmt.Fprintf(&b, " "+format, args...) }
	if k.Profile != "" {
		opt("profile=%s", k.Profile)
	}
	if k.NumEvents != 0 {
		opt("events=%d", k.NumEvents)
	}
	if k.Seed != 0 {
		opt("seed=%d", k.Seed)
	}
	if k.Cells != 0 {
		opt("cells=%d", k.Cells)
	}
	if k.TaskWindow != 0 {
		opt("tw=%d", k.TaskWindow)
	}
	if k.ArrivalWindow != 0 {
		opt("aw=%d", k.ArrivalWindow)
	}
	if k.CapturePeriod != 0 {
		opt("period=%gs", k.CapturePeriod)
	}
	if k.Engine != sim.FixedIncrement {
		opt("engine=%s", k.Engine)
	}
	if k.BufferCapacity != 0 {
		opt("buf=%d", k.BufferCapacity)
	}
	if k.Jitter != 0 {
		opt("jitter=%g", k.Jitter)
	}
	if k.CheckpointInterval != 0 || k.Checkpoint != sim.JITCheckpoint {
		opt("ckpt=%s", k.Checkpoint)
	}
	if k.StoreCapacitance != 0 {
		opt("store=%gF", k.StoreCapacitance)
	}
	if k.Faults.Enabled() {
		opt("faults=%s", k.Faults)
	}
	return b.String()
}

// resolve applies a key's deviations to the base setup and returns the
// resolved setup plus the simulator-level override hook.
func (s Setup) resolve(k RunKey) (Setup, func(*sim.Config), error) {
	if k.Profile != "" {
		p, ok := ProfileByName(k.Profile)
		if !ok {
			return s, nil, fmt.Errorf("experiments: unknown profile %q", k.Profile)
		}
		s.Profile = p
	}
	if k.NumEvents > 0 {
		s.NumEvents = k.NumEvents
	}
	if k.Seed != 0 {
		s.Seed = k.Seed
	}
	if k.Cells > 0 {
		s.Cells = k.Cells
	}
	if k.TaskWindow > 0 {
		s.TaskWindow = k.TaskWindow
	}
	if k.ArrivalWindow > 0 {
		s.ArrivalWindow = k.ArrivalWindow
	}
	if k.CapturePeriod > 0 {
		s.CapturePeriod = k.CapturePeriod
	}
	if k.Engine != sim.FixedIncrement {
		s.Engine = k.Engine
	}
	if k.BufferCapacity == 0 && k.Jitter == 0 && k.Checkpoint == sim.JITCheckpoint &&
		k.CheckpointInterval == 0 && k.StoreCapacitance == 0 && !k.Faults.Enabled() {
		return s, nil, nil // no simulator-level overrides
	}
	mutate := func(c *sim.Config) {
		if k.BufferCapacity > 0 {
			c.BufferCapacity = k.BufferCapacity
		}
		if k.Jitter > 0 {
			c.TexeJitterOverride = k.Jitter
		}
		c.Checkpoint = k.Checkpoint
		if k.CheckpointInterval > 0 {
			c.CheckpointInterval = k.CheckpointInterval
		}
		if k.StoreCapacitance > 0 {
			store := energy.DefaultConfig()
			store.Capacitance = k.StoreCapacitance
			c.Store = store
		}
		if k.Faults.Enabled() {
			c.Faults = k.Faults
		}
	}
	return s, mutate, nil
}

// runKey resolves and executes one key against the base setup.
func (s Setup) runKey(ctx context.Context, k RunKey) (metrics.Results, error) {
	resolved, mutate, err := s.resolve(k)
	if err != nil {
		return metrics.Results{}, err
	}
	return resolved.runContext(ctx, k.System, k.Env, mutate)
}

// Sweep executes run plans against one base Setup through a shared
// memoizing pool: every unique RunKey is simulated exactly once no matter
// how many figures — or concurrent figure goroutines — request it. Keys
// that differ only in what Traces does not read (the system, the engine,
// simulator-level deviations) share one generated trace pair.
type Sweep struct {
	Setup  Setup
	pool   *runner.Pool[RunKey, metrics.Results]
	traces traceShare
}

// run is the pool's run function: runKey over shared traces.
func (sw *Sweep) run(ctx context.Context, k RunKey) (metrics.Results, error) {
	resolved, mutate, err := sw.Setup.resolve(k)
	if err != nil {
		return metrics.Results{}, err
	}
	power, events := sw.traces.get(resolved, k.Env)
	return resolved.simulate(ctx, k.System, k.Env, mutate, power, events)
}

// traceKey is everything Setup.Traces reads of a resolved setup and an
// environment.
type traceKey struct {
	seed        int64
	numEvents   int
	cells       int
	maxDuration float64
}

// traceEntry is one generated trace pair.
type traceEntry struct {
	key    traceKey
	power  trace.PowerTrace
	events *trace.EventTrace
}

// traceShare hands the keys of a Sweep the trace pairs they resolve to,
// generating each pair once while it is in use. A plan lists the keys of
// one (seed, environment) next to each other (baseKeys), so it holds at
// most one pair per pool worker and evicts the least recently used one;
// the traces are read-only, so concurrent runs share them freely.
type traceShare struct {
	mu      sync.Mutex
	size    int          // one entry per pool worker
	entries []traceEntry // least recently used first
}

// get returns s.Traces(env), shared with earlier keys when they match.
func (c *traceShare) get(s Setup, env Environment) (trace.PowerTrace, *trace.EventTrace) {
	k := traceKey{seed: s.Seed, numEvents: s.NumEvents, cells: s.Cells, maxDuration: env.MaxDuration}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.take(k)
	if !ok {
		// Drop the eldest pair before generating, so it can be collected
		// while the new one is built; generate outside the lock.
		c.makeRoom()
		c.mu.Unlock()
		e = traceEntry{key: k}
		e.power, e.events = s.Traces(env)
		c.mu.Lock()
		if held, ok := c.take(k); ok {
			e = held // another worker generated the same pair meanwhile
		}
		c.makeRoom()
	}
	c.entries = append(c.entries, e)
	return e.power, e.events
}

// makeRoom evicts the least recently used entry when the share is full.
// Callers hold mu.
func (c *traceShare) makeRoom() {
	if len(c.entries) >= c.size {
		c.entries[0] = traceEntry{}
		c.entries = append(c.entries[:0], c.entries[1:]...)
	}
}

// take removes and returns the entry for k, when held. Callers hold mu.
func (c *traceShare) take(k traceKey) (traceEntry, bool) {
	for i, e := range c.entries {
		if e.key == k {
			c.entries = append(c.entries[:i], c.entries[i+1:]...)
			return e, true
		}
	}
	return traceEntry{}, false
}

// NewSweep builds a sweep with default pool settings (one worker per CPU,
// no per-run timeout).
func NewSweep(s Setup) *Sweep {
	return NewSweepConfig(s, runner.Config[RunKey]{})
}

// NewSweepConfig builds a sweep with explicit pool settings (worker count,
// per-run timeout, progress callback).
func NewSweepConfig(s Setup, cfg runner.Config[RunKey]) *Sweep {
	sw := &Sweep{Setup: s}
	sw.pool = runner.New(sw.run, cfg)
	sw.traces.size = sw.pool.Workers()
	return sw
}

// Get resolves one key (executing it on the pool unless cached).
func (sw *Sweep) Get(ctx context.Context, k RunKey) (metrics.Results, error) {
	return sw.pool.Do(ctx, k)
}

// Results resolves all keys concurrently (bounded by the pool's workers)
// and returns them as a map for figure rendering. Duplicate keys are fine:
// single-flight collapses them onto one execution.
func (sw *Sweep) Results(ctx context.Context, keys []RunKey) (map[RunKey]metrics.Results, error) {
	vals, err := sw.pool.Collect(ctx, keys)
	if err != nil {
		return nil, err
	}
	out := make(map[RunKey]metrics.Results, len(keys))
	for i, k := range keys {
		out[k] = vals[i]
	}
	return out, nil
}

// Ledger summarizes the sweep so far: runs executed, cache hits, errors,
// wall and cpu time.
func (sw *Sweep) Ledger() runner.Ledger { return sw.pool.Ledger() }

// Workers returns the sweep pool's concurrency bound.
func (sw *Sweep) Workers() int { return sw.pool.Workers() }

// baseKeys enumerates systems × envs with no setup deviations — the plan
// most paper figures share, which is exactly what makes the cross-figure
// cache effective.
func baseKeys(systems []string, envs ...Environment) []RunKey {
	keys := make([]RunKey, 0, len(systems)*len(envs))
	for _, env := range envs {
		for _, id := range systems {
			keys = append(keys, RunKey{System: id, Env: env})
		}
	}
	return keys
}
