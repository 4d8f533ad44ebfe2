// Package baseline implements the comparison systems from the paper's
// evaluation (§6.1):
//
//   - NoAdapt (NA): run every task at highest quality, FCFS — the behaviour
//     of most prior energy-harvesting systems.
//   - AlwaysDegrade (AD): run every degradable task at its lowest quality.
//   - FixedThreshold: degrade when the input buffer is filled to a static
//     fraction; CatNap (CN) is the 100 % special case (degrade only once
//     the buffer is already full).
//   - PowerThreshold: degrade when input power falls below a static
//     threshold — the Protean/Zygarde policy. PZO derives the threshold
//     from the harvester datasheet maximum (which real traces rarely
//     approach, so it degrades nearly always); PZI is the idealised,
//     unimplementable variant whose threshold comes from the maximum power
//     actually observed in the experiment (oracular knowledge).
//
// All baselines schedule FCFS and perform no ratio computations, so they
// carry no Quetzal runtime overhead.
package baseline

import (
	"fmt"

	"quetzal/internal/buffer"
	"quetzal/internal/core"
	"quetzal/internal/model"
	"quetzal/internal/sched"
)

// Rule decides whether the next job execution runs degraded.
type Rule interface {
	Name() string
	Degrade(env core.Env) bool
}

// Controller adapts a Rule into a core.Controller with FCFS scheduling.
type Controller struct {
	app    *model.App
	policy sched.Policy
	rule   Rule
	opts   []int // Decision.Options, reused: valid until the next NextJob
}

// New builds a baseline controller for the app. policy nil defaults to FCFS.
func New(app *model.App, rule Rule, policy sched.Policy) (*Controller, error) {
	if app == nil {
		return nil, fmt.Errorf("baseline: app is required")
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if rule == nil {
		return nil, fmt.Errorf("baseline: rule is required")
	}
	if policy == nil {
		policy = sched.FCFS{}
	}
	return &Controller{app: app, policy: policy, rule: rule}, nil
}

// Name implements core.Controller.
func (c *Controller) Name() string { return c.rule.Name() }

// NextJob implements core.Controller.
func (c *Controller) NextJob(env core.Env, buf *buffer.Buffer) (core.Decision, bool) {
	sd := c.policy.Select(c.app, buf, nil)
	if sd.BufferIndex < 0 {
		return core.Decision{BufferIndex: -1, JobID: -1}, false
	}
	job := c.app.JobByID(sd.JobID)
	if cap(c.opts) < len(job.Tasks) {
		c.opts = make([]int, len(job.Tasks))
	}
	c.opts = c.opts[:len(job.Tasks)]
	clear(c.opts)
	dec := core.Decision{
		BufferIndex: sd.BufferIndex,
		JobID:       sd.JobID,
		Options:     c.opts,
	}
	if c.rule.Degrade(env) {
		for i, task := range job.Tasks {
			if task.Degradable() {
				dec.Options[i] = len(task.Options) - 1
				dec.Degraded = true
			}
		}
	}
	return dec, true
}

// ObserveCapture implements core.Controller (baselines track nothing).
func (c *Controller) ObserveCapture(bool) {}

// OnJobComplete implements core.Controller (baselines learn nothing).
func (c *Controller) OnJobComplete(core.Feedback) {}

// RatioOps implements core.Controller: baselines never evaluate the
// P_exe/P_in ratio.
func (c *Controller) RatioOps() (int, bool) { return 0, false }

// never is the NoAdapt rule.
type never struct{}

func (never) Name() string          { return "noadapt" }
func (never) Degrade(core.Env) bool { return false }

// always is the AlwaysDegrade rule.
type always struct{}

func (always) Name() string          { return "alwaysdegrade" }
func (always) Degrade(core.Env) bool { return true }

// NoAdapt returns the NA baseline controller.
func NoAdapt(app *model.App) (*Controller, error) { return New(app, never{}, nil) }

// AlwaysDegrade returns the AD baseline controller.
func AlwaysDegrade(app *model.App) (*Controller, error) { return New(app, always{}, nil) }

// FixedThreshold degrades when buffer occupancy reaches Frac (0–1].
type FixedThreshold struct {
	Frac float64
}

// Name implements Rule.
func (f FixedThreshold) Name() string {
	return fmt.Sprintf("fixed-threshold-%d%%", int(f.Frac*100+0.5))
}

// Degrade implements Rule.
func (f FixedThreshold) Degrade(env core.Env) bool {
	if env.BufferCap == 0 {
		return false
	}
	return float64(env.BufferLen)/float64(env.BufferCap) >= f.Frac
}

// CatNap returns the CN baseline: degrade only when the buffer is 100 %
// full (Maeng & Lucia's CatNap reacts after the buffer fills, §6.1).
func CatNap(app *model.App) (*Controller, error) {
	return New(app, catnapRule{}, nil)
}

type catnapRule struct{}

func (catnapRule) Name() string { return "catnap" }
func (catnapRule) Degrade(env core.Env) bool {
	return env.BufferCap > 0 && env.BufferLen >= env.BufferCap
}

// Threshold returns a fixed-buffer-threshold baseline controller.
func Threshold(app *model.App, frac float64) (*Controller, error) {
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("baseline: threshold fraction must be in (0,1], got %g", frac)
	}
	return New(app, FixedThreshold{Frac: frac}, nil)
}

// PowerThreshold degrades when input power is below Watts.
type PowerThreshold struct {
	Label string
	Watts float64
}

// Name implements Rule.
func (p PowerThreshold) Name() string { return p.Label }

// Degrade implements Rule.
func (p PowerThreshold) Degrade(env core.Env) bool { return env.InputPower < p.Watts }

// PZOFraction is the fraction of the harvester's datasheet maximum used as
// the Protean/Zygarde threshold.
const PZOFraction = 0.5

// PZO returns the Protean/Zygarde baseline as proposed: threshold at
// PZOFraction of the harvester's datasheet maximum output. Real traces
// commonly stay below it, so PZO degrades almost always.
func PZO(app *model.App, datasheetMaxWatts float64) (*Controller, error) {
	if datasheetMaxWatts <= 0 {
		return nil, fmt.Errorf("baseline: datasheet max must be positive, got %g", datasheetMaxWatts)
	}
	return New(app, PowerThreshold{Label: "pzo", Watts: PZOFraction * datasheetMaxWatts}, nil)
}

// PZI returns the idealised Protean/Zygarde baseline: threshold at
// PZOFraction of the maximum power observed in this very experiment, which
// requires oracular knowledge of the future (§6.1).
func PZI(app *model.App, observedMaxWatts float64) (*Controller, error) {
	if observedMaxWatts <= 0 {
		return nil, fmt.Errorf("baseline: observed max must be positive, got %g", observedMaxWatts)
	}
	return New(app, PowerThreshold{Label: "pzi", Watts: PZOFraction * observedMaxWatts}, nil)
}
