package experiments

// Fleet-run planning: FleetSpec is the wire form of a fleet sweep (N devices
// of one system in one environment), built for hostile input exactly like
// KeySpec. Plan() is the single validation gate between the network/CLI and
// internal/fleet: every bound lives here, and a nil error guarantees the
// plan is executable with bounded work. The resolved FleetPlan carries no
// zero-means-default fields — fleet.Run consumes it literally.

import (
	"fmt"

	"quetzal/internal/faults"
	"quetzal/internal/sim"
)

// Fleet request bounds. One fleet run is O(devices × events); the work cap
// keeps a hostile request bounded while leaving the headline 1M-device
// sweep comfortable room.
const (
	// MaxFleetDevices bounds one fleet sweep's population.
	MaxFleetDevices = 2_000_000
	// MaxFleetWork bounds devices × events-per-device, the simulation-work
	// product (a 1M-device sweep at the default 4 events/device is 4M).
	MaxFleetWork = 16_000_000
	// MaxFleetShard bounds the per-shard device count.
	MaxFleetShard = 65536
	// MaxFleetJitter bounds per-device parameter jitter: ±50% keeps every
	// jittered parameter physical (positive periods, capacitances, buffer
	// slots).
	MaxFleetJitter = 0.5
)

// Fleet defaults, applied by Plan for omitted fields.
const (
	// DefaultFleetEvents keeps per-device runs short: fleet questions are
	// about the population distribution, not any single device's long run.
	DefaultFleetEvents = 4
	// DefaultFleetShard trades scheduling overhead against fold latency.
	DefaultFleetShard = 512
	// DefaultFleetCorrelation is the regional-sky blend weight: mostly one
	// shared sky with per-device cloud texture.
	DefaultFleetCorrelation = 0.8
	// DefaultFleetSeed matches the experiment harness default.
	DefaultFleetSeed = 42
)

// FleetPlan is one validated, fully resolved fleet run. Every field is
// concrete (Plan applied the defaults), so two equal plans describe
// byte-identical sweeps.
type FleetPlan struct {
	Devices     int
	System      string
	Env         Environment
	Profile     string // registry name; see Profile* constants
	Events      int    // events per device
	Seed        int64  // fleet seed; per-device streams derive from it
	Engine      sim.EngineKind
	ShardSize   int
	Jitter      float64 // per-device parameter jitter fraction, in [0, 0.5]
	Correlation float64 // regional-sky blend weight, in (0, 1]
	// Faults is the fleet-wide hardware-realism scenario (zero → the
	// environment's own spec). Per-device fault draws derive from the fleet
	// seed and device index (fleet.StreamFaults), never from shard layout.
	Faults faults.Spec
}

// String renders the plan for progress lines and wrapped errors.
func (p FleetPlan) String() string {
	s := fmt.Sprintf("fleet %d×%s/%s profile=%s events=%d seed=%d shard=%d jitter=%g corr=%g",
		p.Devices, p.System, p.Env.Name, p.Profile, p.Events, p.Seed, p.ShardSize, p.Jitter, p.Correlation)
	if p.Faults.Enabled() {
		s += " realism=" + p.Faults.String()
	}
	return s
}

// FleetSpec is the JSON form of one fleet request. Apart from Devices and
// System/Env, the zero value of every field means "use the fleet default".
type FleetSpec struct {
	Devices int    `json:"devices"`
	System  string `json:"system"`
	// Policy is an alias for System, mirroring KeySpec: set either, or both
	// to the same name.
	Policy string `json:"policy,omitempty"`
	Env    string `json:"env"`
	// MaxDuration defines a custom environment exactly as in KeySpec.
	MaxDuration float64 `json:"max_duration,omitempty"`

	Profile string `json:"profile,omitempty"`
	Events  int    `json:"events,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	// Engine defaults to "lockstep", the event-driven stepper under the name
	// fleet run ids have always carried. Fleets are population sweeps with
	// no per-device observers, exactly the regime its crawl replay targets.
	// "event" selects the same stepper, so aggregates and their sha256
	// fingerprints do not depend on the choice. The fixed-increment
	// reference stepper would make 1M devices intractable.
	Engine    string  `json:"engine,omitempty"`
	ShardSize int     `json:"shard_size,omitempty"`
	Jitter    float64 `json:"jitter,omitempty"`
	// Correlation in (0, 1]; 0 → DefaultFleetCorrelation. Use a tiny value
	// (e.g. 0.001) for effectively independent skies.
	Correlation float64 `json:"correlation,omitempty"`
	// Faults overrides the environment's hardware-realism scenario for the
	// whole fleet (integer knobs; see faults.Spec's json tags).
	Faults faults.Spec `json:"faults,omitempty"`
}

// Plan validates the spec and resolves it to a concrete FleetPlan — the
// only path from untrusted input to a fleet run.
func (sp FleetSpec) Plan() (FleetPlan, error) {
	if sp.Devices <= 0 {
		return FleetPlan{}, fmt.Errorf("devices must be positive, got %d", sp.Devices)
	}
	if sp.Devices > MaxFleetDevices {
		return FleetPlan{}, fmt.Errorf("devices must be at most %d, got %d", MaxFleetDevices, sp.Devices)
	}
	system := sp.System
	switch {
	case sp.Policy != "" && sp.System != "" && sp.Policy != sp.System:
		return FleetPlan{}, fmt.Errorf("ambiguous request: system %q vs policy %q (set one, or both to the same name)",
			sp.System, sp.Policy)
	case sp.Policy != "":
		system = sp.Policy
	}
	if system == "" {
		return FleetPlan{}, fmt.Errorf("missing system (e.g. %q)", SysQuetzal)
	}
	if !ValidSystem(system) {
		return FleetPlan{}, fmt.Errorf("unknown system %q", system)
	}
	if system == SysIdeal {
		// Ideal is computed analytically per run, not simulated; a fleet of
		// closed-form results would be meaningless as a population sweep.
		return FleetPlan{}, fmt.Errorf("system %q has no fleet form", SysIdeal)
	}
	if sp.Env == "" {
		return FleetPlan{}, fmt.Errorf("missing env (e.g. %q)", Crowded.Name)
	}
	if err := finite("max_duration", sp.MaxDuration); err != nil {
		return FleetPlan{}, err
	}
	env, known := EnvByName(sp.Env)
	switch {
	case known && sp.MaxDuration != 0 && sp.MaxDuration != env.MaxDuration:
		return FleetPlan{}, fmt.Errorf("env %q has max duration %gs; omit max_duration or use a custom env name",
			sp.Env, env.MaxDuration)
	case !known && sp.MaxDuration == 0:
		return FleetPlan{}, fmt.Errorf("unknown env %q (custom envs need max_duration)", sp.Env)
	case !known:
		if len(sp.Env) > 64 {
			return FleetPlan{}, fmt.Errorf("env name longer than 64 bytes")
		}
		if sp.MaxDuration < 0.1 || sp.MaxDuration > MaxSpecDuration {
			return FleetPlan{}, fmt.Errorf("max_duration must be in [0.1, %d] seconds, got %g",
				MaxSpecDuration, sp.MaxDuration)
		}
		env = Environment{Name: sp.Env, MaxDuration: sp.MaxDuration}
	}

	profile := sp.Profile
	if profile == "" {
		profile = ProfileApollo4
	}
	if _, ok := ProfileByName(profile); !ok {
		return FleetPlan{}, fmt.Errorf("unknown profile %q", sp.Profile)
	}

	engine := sim.Lockstep
	if sp.Engine != "" {
		var err error
		if engine, err = ParseEngineKind(sp.Engine); err != nil {
			return FleetPlan{}, err
		}
	}

	for _, c := range []struct {
		name   string
		v      float64
		lo, hi float64
	}{
		{"events", float64(sp.Events), 1, MaxSpecEvents},
		{"shard_size", float64(sp.ShardSize), 1, MaxFleetShard},
		{"jitter", sp.Jitter, 0, MaxFleetJitter},
		{"correlation", sp.Correlation, 0, 1},
	} {
		if err := inRange(c.name, c.v, c.lo, c.hi); err != nil {
			return FleetPlan{}, err
		}
	}

	events := sp.Events
	if events == 0 {
		events = DefaultFleetEvents
	}
	if work := int64(sp.Devices) * int64(events); work > MaxFleetWork {
		return FleetPlan{}, fmt.Errorf("devices × events = %d exceeds the work cap %d", work, MaxFleetWork)
	}
	seed := sp.Seed
	if seed == 0 {
		seed = DefaultFleetSeed
	}
	shard := sp.ShardSize
	if shard == 0 {
		shard = DefaultFleetShard
	}
	corr := sp.Correlation
	if corr == 0 {
		corr = DefaultFleetCorrelation
	}
	if err := sp.Faults.Validate(); err != nil {
		return FleetPlan{}, fmt.Errorf("faults: %w", err)
	}

	return FleetPlan{
		Devices:     sp.Devices,
		System:      system,
		Env:         env,
		Profile:     profile,
		Events:      events,
		Seed:        seed,
		Engine:      engine,
		ShardSize:   shard,
		Jitter:      sp.Jitter,
		Correlation: corr,
		Faults:      sp.Faults,
	}, nil
}
