package experiments

// Config-from-JSON: KeySpec is the wire form of a RunKey, built for hostile
// input. The HTTP service (internal/service) decodes untrusted request
// bodies into KeySpecs; RunKey() is the single validation gate between the
// network and the simulator, so every bound lives here and is fuzzed
// (service.FuzzDecodeRequest). Two KeySpecs describing the same run resolve
// to identical comparable RunKeys, which is what lets the service's
// single-flight pool coalesce duplicate requests.

import (
	"context"
	"fmt"
	"math"

	"quetzal/internal/faults"
	"quetzal/internal/metrics"
	"quetzal/internal/policy"
	"quetzal/internal/sim"
)

// Request bounds. The simulator is O(events × systems); these caps keep one
// hostile request from pinning a worker for hours or allocating absurd
// traces, while leaving paper-scale runs (1000 events) comfortable room.
const (
	MaxSpecEvents      = 20000
	MaxSpecDuration    = 3600 // seconds, custom-environment event cap
	MaxSpecCells       = 60
	MaxSpecWindow      = 4096
	MaxSpecPeriod      = 3600    // seconds between captures
	MinSpecPeriod      = 0.001   // 1 kHz capture is already far beyond the paper
	MaxSpecBufferCap   = 1 << 20 // matches the Ideal baseline's "infinite" buffer
	MaxSpecCapacitance = 10      // farads; the evaluated store is 3.3 mF
)

// KeySpec is the JSON form of one run request. The zero value of every
// optional field means "use the serving setup's default", mirroring RunKey.
type KeySpec struct {
	System string `json:"system"`
	// Policy is an alias for System (the registry's vocabulary); set either,
	// or both to the same name — two different names are rejected as
	// ambiguous rather than silently preferring one.
	Policy string `json:"policy,omitempty"`
	Env    string `json:"env"`
	// MaxDuration defines a custom environment (seconds cap on event
	// durations) when Env is not one of the Table 1 names. For a known Env
	// it must be omitted or match.
	MaxDuration float64 `json:"max_duration,omitempty"`

	Profile       string  `json:"profile,omitempty"`
	Events        int     `json:"events,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	Cells         int     `json:"cells,omitempty"`
	TaskWindow    int     `json:"task_window,omitempty"`
	ArrivalWindow int     `json:"arrival_window,omitempty"`
	CapturePeriod float64 `json:"capture_period,omitempty"`
	Engine        string  `json:"engine,omitempty"` // "", "fixed", "event", "lockstep"

	BufferCapacity     int     `json:"buffer_capacity,omitempty"`
	Jitter             float64 `json:"jitter,omitempty"`
	Checkpoint         string  `json:"checkpoint,omitempty"` // "", "jit", "none", "periodic"
	CheckpointInterval float64 `json:"checkpoint_interval,omitempty"`
	StoreCapacitance   float64 `json:"store_capacitance,omitempty"`

	// Faults is the hardware-realism scenario (integer knobs; see
	// faults.Spec's json tags). Omitted/zero → the environment's own spec.
	Faults faults.Spec `json:"faults,omitempty"`
}

// ValidSystem reports whether id names a system Run accepts: any policy
// registered in internal/policy — the Sys* constants or a fixed-threshold
// id "fixed-NN" (1 ≤ NN ≤ 100). The fixed form must round-trip exactly, so
// "fixed-25x" and "fixed-007" are rejected rather than leniently parsed.
func ValidSystem(id string) bool {
	return policy.Known(id)
}

// PolicyNames enumerates the registered policy ids in registry declaration
// order (the fixed-NN family is synthesized, not enumerated).
func PolicyNames() []string {
	return policy.Names()
}

// EnvByName resolves a named environment: the Table 1 four plus the league
// extremes.
func EnvByName(name string) (Environment, bool) {
	for _, env := range LeagueEnvironments {
		if env.Name == name {
			return env, true
		}
	}
	return Environment{}, false
}

// ParseEngineKind maps the wire names to engine kinds ("" → fixed, the
// paper-faithful default). "event" and "lockstep" select the same
// event-driven stepper; they stay distinct names because run ids carry
// them.
func ParseEngineKind(name string) (sim.EngineKind, error) {
	switch name {
	case "", "fixed":
		return sim.FixedIncrement, nil
	case "event":
		return sim.EventDriven, nil
	case "lockstep":
		return sim.Lockstep, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want fixed, event or lockstep)", name)
}

// ParseCheckpointPolicy maps the wire names to checkpoint policies ("" →
// jit, the paper's model).
func ParseCheckpointPolicy(name string) (sim.CheckpointPolicy, error) {
	switch name {
	case "", "jit":
		return sim.JITCheckpoint, nil
	case "none":
		return sim.NoCheckpoint, nil
	case "periodic":
		return sim.PeriodicCheckpoint, nil
	}
	return 0, fmt.Errorf("unknown checkpoint policy %q (want jit, none or periodic)", name)
}

// finite rejects the float values JSON cannot legally encode but a buggy or
// adversarial producer might smuggle through a lenient decoder.
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s must be finite, got %g", name, v)
	}
	return nil
}

// inRange validates one numeric field against [lo, hi]; zero is always
// allowed (it means "default").
func inRange(name string, v, lo, hi float64) error {
	if err := finite(name, v); err != nil {
		return err
	}
	if v == 0 {
		return nil
	}
	if v < lo || v > hi {
		return fmt.Errorf("%s must be in [%g, %g] (or 0 for the default), got %g", name, lo, hi, v)
	}
	return nil
}

// RunKey validates the spec and resolves it to a comparable RunKey. It is
// the only path from untrusted input to the simulator: everything a request
// can set is bounds-checked here, and a nil error guarantees the key is
// executable (unknown systems, profiles, engines and absurd magnitudes are
// all rejected up front).
func (sp KeySpec) RunKey() (RunKey, error) {
	system := sp.System
	switch {
	case sp.Policy != "" && sp.System != "" && sp.Policy != sp.System:
		return RunKey{}, fmt.Errorf("ambiguous request: system %q vs policy %q (set one, or both to the same name)",
			sp.System, sp.Policy)
	case sp.Policy != "":
		system = sp.Policy
	}
	if system == "" {
		return RunKey{}, fmt.Errorf("missing system (e.g. %q)", SysQuetzal)
	}
	if !ValidSystem(system) {
		return RunKey{}, fmt.Errorf("unknown system %q", system)
	}
	if sp.Env == "" {
		return RunKey{}, fmt.Errorf("missing env (e.g. %q)", Crowded.Name)
	}
	if err := finite("max_duration", sp.MaxDuration); err != nil {
		return RunKey{}, err
	}
	env, known := EnvByName(sp.Env)
	switch {
	case known && sp.MaxDuration != 0 && sp.MaxDuration != env.MaxDuration:
		return RunKey{}, fmt.Errorf("env %q has max duration %gs; omit max_duration or use a custom env name",
			sp.Env, env.MaxDuration)
	case !known && sp.MaxDuration == 0:
		return RunKey{}, fmt.Errorf("unknown env %q (custom envs need max_duration)", sp.Env)
	case !known:
		if len(sp.Env) > 64 {
			return RunKey{}, fmt.Errorf("env name longer than 64 bytes")
		}
		if sp.MaxDuration < 0.1 || sp.MaxDuration > MaxSpecDuration {
			return RunKey{}, fmt.Errorf("max_duration must be in [0.1, %d] seconds, got %g",
				MaxSpecDuration, sp.MaxDuration)
		}
		env = Environment{Name: sp.Env, MaxDuration: sp.MaxDuration}
	}

	if sp.Profile != "" {
		if _, ok := ProfileByName(sp.Profile); !ok {
			return RunKey{}, fmt.Errorf("unknown profile %q", sp.Profile)
		}
	}
	engine, err := ParseEngineKind(sp.Engine)
	if err != nil {
		return RunKey{}, err
	}
	ckpt, err := ParseCheckpointPolicy(sp.Checkpoint)
	if err != nil {
		return RunKey{}, err
	}
	for _, c := range []struct {
		name   string
		v      float64
		lo, hi float64
	}{
		{"events", float64(sp.Events), 1, MaxSpecEvents},
		{"cells", float64(sp.Cells), 1, MaxSpecCells},
		{"task_window", float64(sp.TaskWindow), 1, MaxSpecWindow},
		{"arrival_window", float64(sp.ArrivalWindow), 1, MaxSpecWindow},
		{"capture_period", sp.CapturePeriod, MinSpecPeriod, MaxSpecPeriod},
		{"buffer_capacity", float64(sp.BufferCapacity), 1, MaxSpecBufferCap},
		{"jitter", sp.Jitter, 0, 1},
		{"checkpoint_interval", sp.CheckpointInterval, 0.001, MaxSpecDuration},
		{"store_capacitance", sp.StoreCapacitance, 1e-6, MaxSpecCapacitance},
	} {
		if err := inRange(c.name, c.v, c.lo, c.hi); err != nil {
			return RunKey{}, err
		}
	}
	if err := sp.Faults.Validate(); err != nil {
		return RunKey{}, fmt.Errorf("faults: %w", err)
	}

	return RunKey{
		System:             system,
		Env:                env,
		Profile:            sp.Profile,
		NumEvents:          sp.Events,
		Seed:               sp.Seed,
		Cells:              sp.Cells,
		TaskWindow:         sp.TaskWindow,
		ArrivalWindow:      sp.ArrivalWindow,
		CapturePeriod:      sp.CapturePeriod,
		Engine:             engine,
		BufferCapacity:     sp.BufferCapacity,
		Jitter:             sp.Jitter,
		Checkpoint:         ckpt,
		CheckpointInterval: sp.CheckpointInterval,
		StoreCapacitance:   sp.StoreCapacitance,
		Faults:             sp.Faults,
	}, nil
}

// Execute resolves and runs one key against the base setup — the function a
// service-owned runner.Pool memoizes. Identical to what Sweep.Get executes,
// exported so long-lived servers can own their pool configuration.
func (s Setup) Execute(ctx context.Context, k RunKey) (metrics.Results, error) {
	return s.runKey(ctx, k)
}
