package policy

import (
	"fmt"

	"quetzal/internal/baseline"
	"quetzal/internal/core"
	"quetzal/internal/model"
	"quetzal/internal/sched"
	"quetzal/internal/trace"
)

// Canonical policy names. These are the system ids the whole harness
// accepts — experiments figures, the run-plan/KeySpec layer, simgen's
// generated dimension, the fleet layer and every cmd -policy/-system flag.
const (
	Quetzal        = "qz"
	QuetzalDiv     = "qz-div"     // exact-division estimator (no hardware module)
	QuetzalAvg     = "qz-avg"     // Avg-S_e2e estimator (§7.3)
	QuetzalFCFS    = "qz-fcfs"    // IBO engine with FCFS scheduling (Fig 12)
	QuetzalLCFS    = "qz-lcfs"    // IBO engine with LCFS scheduling (Fig 12)
	QuetzalCapture = "qz-capture" // IBO engine with capture-order scheduling (Fig 12)
	QuetzalNoPID   = "qz-nopid"   // ablation: PID disabled
	QuetzalNoIBO   = "qz-noibo"   // ablation: pure Energy-aware SJF, no degradation
	NoAdapt        = "na"
	AlwaysDegrade  = "ad"
	CatNap         = "cn"
	PZO            = "pzo"
	PZI            = "pzi"
	Ideal          = "ideal" // NoAdapt with an effectively infinite buffer

	// Competitor strategies (post-paper, each a core.Controller).
	MDPName        = "mdp"        // finite-horizon value iteration (arXiv 2510.23820 family)
	EnSuReName     = "ensure"     // k-fault backup-window scheduling (EnSuRe)
	InterweaveName = "interweave" // greedy throughput interweaving (arXiv 2212.07002 family)
)

// DefaultDatasheetMaxWatts is the 6-cell harvester's datasheet maximum
// output — the oracle-free threshold source the PZO baseline uses (§6.1).
const DefaultDatasheetMaxWatts = 0.5

// IdealBufferCapacity is the "infinite" buffer the Ideal system simulates
// with when it is not computed analytically.
const IdealBufferCapacity = 1 << 20

// Context carries everything a policy builder may need. App is required;
// Power and Events are required only by policies that derive thresholds
// from the trace (PZI). Zero-valued knobs mean "use the defaults".
type Context struct {
	App    *model.App
	Power  trace.PowerTrace  // pzi only: observed-maximum threshold source
	Events *trace.EventTrace // pzi only: observation horizon

	CapturePeriod float64 // seconds between captures; 0 → 1
	TaskWindow    int     // quetzal bit-vector windows; 0 → defaults
	ArrivalWindow int

	// DatasheetMaxWatts overrides the PZO threshold source; 0 → the
	// DefaultDatasheetMaxWatts harvester.
	DatasheetMaxWatts float64
}

func (c Context) capturePeriod() float64 {
	if c.CapturePeriod > 0 {
		return c.CapturePeriod
	}
	return 1
}

// Spec is one registry entry.
type Spec struct {
	Name string
	Doc  string // one-line description for listings
	// BufferCapacity, when non-zero, overrides the device profile's input
	// buffer capacity (the Ideal system's "infinite" buffer).
	BufferCapacity int
	Build          func(Context) (core.Controller, error)
}

// quetzal builds the Quetzal runtime with an optional config mutation. The
// returned controller is the unwrapped *core.Runtime: the engine
// type-asserts it for the golden-pinned "pid" event-log line.
func quetzal(mutate func(*core.Config)) func(Context) (core.Controller, error) {
	return func(ctx Context) (core.Controller, error) {
		cfg := core.Config{
			App:           ctx.App,
			CapturePeriod: ctx.capturePeriod(),
			TaskWindow:    ctx.TaskWindow,
			ArrivalWindow: ctx.ArrivalWindow,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		return core.New(cfg)
	}
}

// registry is the ordered policy table; order is the deterministic Names()
// order. The fixed-NN family is parameterized and resolved by Lookup.
var registry = []Spec{
	{Name: Quetzal, Doc: "Energy-aware SJF + IBO engine + PID (the paper's full design)",
		Build: quetzal(nil)},
	{Name: QuetzalDiv, Doc: "quetzal with exact-division S_e2e (no hardware module)",
		Build: quetzal(func(c *core.Config) { c.Kind = core.ExactDivision })},
	{Name: QuetzalAvg, Doc: "quetzal with the Avg-S_e2e estimator (§7.3)",
		Build: quetzal(func(c *core.Config) { c.Kind = core.AveragedSe2e })},
	{Name: QuetzalFCFS, Doc: "IBO engine with FCFS scheduling (Fig 12)",
		Build: quetzal(func(c *core.Config) { c.Policy = sched.FCFS{} })},
	{Name: QuetzalLCFS, Doc: "IBO engine with LCFS scheduling (Fig 12)",
		Build: quetzal(func(c *core.Config) { c.Policy = sched.LCFS{} })},
	{Name: QuetzalCapture, Doc: "IBO engine with capture-order scheduling (Fig 12)",
		Build: quetzal(func(c *core.Config) { c.Policy = sched.CaptureOrder{} })},
	{Name: QuetzalNoPID, Doc: "ablation: PID prediction-error correction disabled",
		Build: quetzal(func(c *core.Config) { c.DisablePID = true })},
	{Name: QuetzalNoIBO, Doc: "ablation: pure Energy-aware SJF, no degradation",
		Build: quetzal(func(c *core.Config) { c.DisableIBOEngine = true })},
	{Name: NoAdapt, Doc: "highest quality always, FCFS (most prior systems)",
		Build: func(ctx Context) (core.Controller, error) { return baseline.NoAdapt(ctx.App) }},
	{Name: AlwaysDegrade, Doc: "lowest quality always",
		Build: func(ctx Context) (core.Controller, error) { return baseline.AlwaysDegrade(ctx.App) }},
	{Name: CatNap, Doc: "degrade only once the buffer is 100% full",
		Build: func(ctx Context) (core.Controller, error) { return baseline.CatNap(ctx.App) }},
	{Name: PZO, Doc: "Protean/Zygarde threshold from the harvester datasheet maximum",
		Build: func(ctx Context) (core.Controller, error) {
			max := ctx.DatasheetMaxWatts
			if max == 0 {
				max = DefaultDatasheetMaxWatts
			}
			return baseline.PZO(ctx.App, max)
		}},
	{Name: PZI, Doc: "idealised Protean/Zygarde: threshold from the trace's observed maximum",
		Build: func(ctx Context) (core.Controller, error) {
			if ctx.Power == nil || ctx.Events == nil {
				return nil, fmt.Errorf("policy: %s needs the power and event traces (oracular threshold)", PZI)
			}
			return baseline.PZI(ctx.App, trace.MaxPower(ctx.Power, ctx.Events.Duration(), 1))
		}},
	{Name: Ideal, Doc: "NoAdapt with an effectively infinite buffer",
		BufferCapacity: IdealBufferCapacity,
		Build:          func(ctx Context) (core.Controller, error) { return baseline.NoAdapt(ctx.App) }},
	{Name: MDPName, Doc: "finite-horizon value iteration over quantized store × buffer occupancy",
		Build: func(ctx Context) (core.Controller, error) { return NewMDP(ctx.App, ctx.capturePeriod()) }},
	{Name: EnSuReName, Doc: "k-fault backup-window scheduling: deadline-sorted with reserved re-execution slack",
		Build: func(ctx Context) (core.Controller, error) {
			return NewEnSuRe(ctx.App, ctx.capturePeriod(), DefaultEnSuReFaults)
		}},
	{Name: InterweaveName, Doc: "greedy throughput interweaver: min-service-time capture, never idles",
		Build: func(ctx Context) (core.Controller, error) { return NewInterweave(ctx.App) }},
}

// Names returns every non-parameterized registered policy name in the
// registry's deterministic order (the parameterized fixed-NN family is
// accepted by Lookup/Build but not enumerated).
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name
	}
	return out
}

// FixedThresholdID names the fixed-buffer-threshold policy at the given
// occupancy fraction (e.g. 0.25 → "fixed-25").
func FixedThresholdID(frac float64) string {
	return fmt.Sprintf("fixed-%d", int(frac*100+0.5))
}

// fixedPct parses a "fixed-NN" id; ok is false unless 1 ≤ NN ≤ 100 and the
// id round-trips exactly ("fixed-007" and "fixed-25x" are rejected, not
// leniently parsed — two spellings of one policy would split the run cache
// and the sha256 run-id space).
func fixedPct(name string) (int, bool) {
	var pct int
	if n, _ := fmt.Sscanf(name, "fixed-%d", &pct); n != 1 || pct <= 0 || pct > 100 {
		return 0, false
	}
	return pct, FixedThresholdID(float64(pct)/100) == name
}

// Lookup resolves a policy name to its Spec. Parameterized fixed-NN names
// resolve to a synthesized Spec.
func Lookup(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	if pct, ok := fixedPct(name); ok {
		frac := float64(pct) / 100
		return Spec{
			Name: name,
			Doc:  fmt.Sprintf("degrade at %d%% buffer occupancy", pct),
			Build: func(ctx Context) (core.Controller, error) {
				return baseline.Threshold(ctx.App, frac)
			},
		}, true
	}
	return Spec{}, false
}

// Known reports whether name resolves to a registered policy.
func Known(name string) bool {
	_, ok := Lookup(name)
	return ok
}

// Build constructs the named policy's controller. The returned buffer
// capacity is 0 (profile default) except for policies that demand a
// specific one (Ideal); it mirrors the Spec's BufferCapacity.
func Build(name string, ctx Context) (core.Controller, int, error) {
	spec, ok := Lookup(name)
	if !ok {
		return nil, 0, fmt.Errorf("policy: unknown policy %q", name)
	}
	if ctx.App == nil {
		return nil, 0, fmt.Errorf("policy: Context.App is required")
	}
	ctl, err := spec.Build(ctx)
	if err != nil {
		return nil, 0, err
	}
	return ctl, spec.BufferCapacity, nil
}
