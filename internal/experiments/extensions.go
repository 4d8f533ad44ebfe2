package experiments

import (
	"context"
	"fmt"

	"quetzal/internal/metrics"
	"quetzal/internal/report"
	"quetzal/internal/sim"
)

// The studies in this file go beyond the paper's figures: they exercise the
// extensions DESIGN.md lists (variable execution costs — the paper's §8
// future work —, checkpoint policies for the intermittent substrate, and a
// third MCU) so the design decisions have measurable ablations. Like the
// figures, each is a declarative run plan resolved through the sweep's
// shared memoizing pool.

// RunWith is Run with an instrumentation hook over the underlying
// sim.Config: the mutate callback attaches sinks (timeline, event log,
// trace exporter, metrics registry) before the run starts. Instrumented
// runs are unkeyable, so they execute directly rather than through a sweep
// pool. Note SysIdeal resolves analytically — no simulator is built, so
// mutate never runs and the sinks stay empty.
func (s Setup) RunWith(ctx context.Context, systemID string, env Environment, mutate func(*sim.Config)) (metrics.Results, error) {
	return s.runContext(ctx, systemID, env, mutate)
}

// JitterStudy sweeps execution-latency jitter (the §8 variable-cost
// extension) and contrasts Quetzal with and without its PID controller:
// the controller exists to absorb exactly this kind of prediction error.
func (sw *Sweep) JitterStudy(ctx context.Context) (*report.Table, error) {
	jitters := []float64{0, 0.2, 0.4}
	systems := []string{SysQuetzal, SysQuetzalNoPID}
	key := func(j float64, id string) RunKey {
		// Zero jitter is exactly the base run: shared with other figures.
		return RunKey{System: id, Env: Crowded, Jitter: j}
	}
	var keys []RunKey
	for _, j := range jitters {
		for _, id := range systems {
			keys = append(keys, key(j, id))
		}
	}
	res, err := sw.Results(ctx, keys)
	if err != nil {
		return nil, err
	}
	t := report.New("Extension — variable execution costs (§8 future work, crowded)",
		"jitter", "system", "discarded", "ibo", "reported", "highq")
	for _, j := range jitters {
		for _, id := range systems {
			r := res[key(j, id)]
			t.AddRow(fmt.Sprintf("%.0f%%", j*100), id,
				report.Pct(r.DiscardedFraction()),
				report.Pct(r.IBOFraction()),
				report.N(r.ReportedInteresting()),
				report.Pct(r.HighQualityShare()))
		}
	}
	t.AddNote("the paper assumes consistent t_exe/P_exe and names variable costs as future work")
	return t, nil
}

// CheckpointStudy contrasts the intermittent-computing progress models the
// substrate supports: JIT checkpointing (the paper's), periodic
// checkpointing, and no checkpointing, on a store small enough that tasks
// span charge cycles.
func (sw *Sweep) CheckpointStudy(ctx context.Context) (*report.Table, error) {
	policies := []sim.CheckpointPolicy{sim.JITCheckpoint, sim.PeriodicCheckpoint, sim.NoCheckpoint}
	systems := []string{SysQuetzal, SysNoAdapt}
	key := func(p sim.CheckpointPolicy, id string) RunKey {
		return RunKey{System: id, Env: Crowded,
			Checkpoint:         p,
			CheckpointInterval: 0.25, // all tasks run < 1 s; checkpoint within them
			StoreCapacitance:   0.06,
		}
	}
	var keys []RunKey
	for _, p := range policies {
		for _, id := range systems {
			keys = append(keys, key(p, id))
		}
	}
	res, err := sw.Results(ctx, keys)
	if err != nil {
		return nil, err
	}
	t := report.New("Extension — checkpoint policy under intermittent power (crowded, 60 mF store)",
		"policy", "system", "discarded", "jobs", "reported", "brownouts", "aborts")
	for _, p := range policies {
		for _, id := range systems {
			r := res[key(p, id)]
			t.AddRow(p.String(), id,
				report.Pct(r.DiscardedFraction()),
				report.N(r.JobsCompleted),
				report.N(r.ReportedInteresting()),
				report.N(r.Brownouts),
				report.N(r.JobAborts))
		}
	}
	t.AddNote("JIT preserves progress exactly [61]; no-checkpoint restarts the running task each failure")
	return t, nil
}

// SeedStudy re-runs the headline comparison across independent random
// seeds (traces and classifier draws) and reports the spread — evidence
// that the single-seed figures are not a lucky draw. Runs on the
// event-driven engine: ten paper-scale repetitions cost seconds.
func (sw *Sweep) SeedStudy(ctx context.Context) (*report.Table, error) {
	const n = 10
	systems := []string{SysNoAdapt, SysAlwaysDeg, SysQuetzal}
	key := func(id string, k int) RunKey {
		return RunKey{System: id, Env: Crowded,
			Seed:   sw.Setup.Seed + int64(k)*101,
			Engine: sim.EventDriven,
		}
	}
	var keys []RunKey
	for _, id := range systems {
		for k := 0; k < n; k++ {
			keys = append(keys, key(id, k))
		}
	}
	res, err := sw.Results(ctx, keys)
	if err != nil {
		return nil, err
	}
	t := report.New("Extension — seed robustness (crowded, 10 seeds, event-driven engine)",
		"system", "discarded mean", "min", "max", "ibo mean")
	for _, id := range systems {
		type agg struct{ sum, min, max, ibo float64 }
		a := agg{min: 1}
		for k := 0; k < n; k++ {
			r := res[key(id, k)]
			d := r.DiscardedFraction()
			a.sum += d
			a.ibo += r.IBOFraction()
			if d < a.min {
				a.min = d
			}
			if d > a.max {
				a.max = d
			}
		}
		t.AddRow(id,
			report.Pct(a.sum/n),
			report.Pct(a.min),
			report.Pct(a.max),
			report.Pct(a.ibo/n))
	}
	t.AddNote("seeds vary both the environment traces and the classifier coin flips")
	return t, nil
}

// BufferStudy sweeps the input-buffer capacity for Quetzal and NoAdapt:
// the paper fixes 10 slots (Table 1); this shows how much memory each
// system needs to reach a given loss rate — Quetzal's IBO avoidance is
// also a memory-provisioning win.
func (sw *Sweep) BufferStudy(ctx context.Context) (*report.Table, error) {
	capacities := []int{2, 4, 6, 10, 16, 32}
	systems := []string{SysNoAdapt, SysQuetzal}
	key := func(capacity int, id string) RunKey {
		return RunKey{System: id, Env: Crowded, BufferCapacity: capacity}
	}
	var keys []RunKey
	for _, c := range capacities {
		for _, id := range systems {
			keys = append(keys, key(c, id))
		}
	}
	res, err := sw.Results(ctx, keys)
	if err != nil {
		return nil, err
	}
	t := report.New("Extension — input buffer capacity sweep (crowded)",
		"capacity", "system", "discarded", "ibo", "reported")
	for _, c := range capacities {
		for _, id := range systems {
			r := res[key(c, id)]
			t.AddRow(fmt.Sprintf("%d", c), id,
				report.Pct(r.DiscardedFraction()),
				report.Pct(r.IBOFraction()),
				report.N(r.ReportedInteresting()))
		}
	}
	t.AddNote("Table 1 fixes capacity at 10 images; memory is the scarcest resource on these devices")
	return t, nil
}

// LadderStudy runs Quetzal on the four-level degradation ladder
// (Apollo4MultiQuality) and reports how often each quality level actually
// executed per environment — the §4.2 "highest-quality option that avoids
// the IBO" rule made visible.
func (sw *Sweep) LadderStudy(ctx context.Context) (*report.Table, error) {
	key := func(env Environment) RunKey {
		return RunKey{System: SysQuetzal, Env: env, Profile: ProfileApollo4MultiQ}
	}
	keys := make([]RunKey, len(Environments))
	for i, env := range Environments {
		keys[i] = key(env)
	}
	res, err := sw.Results(ctx, keys)
	if err != nil {
		return nil, err
	}
	t := report.New("Extension — four-level degradation ladder (Apollo 4 multi-quality)",
		"environment", "discarded", "opt0", "opt1", "opt2", "opt3", "highq")
	for _, env := range Environments {
		r := res[key(env)]
		t.AddRow(env.Name,
			report.Pct(r.DiscardedFraction()),
			report.N(r.OptionUsage[0]),
			report.N(r.OptionUsage[1]),
			report.N(r.OptionUsage[2]),
			report.N(r.OptionUsage[3]),
			report.Pct(r.HighQualityShare()))
	}
	t.AddNote("opt0 = highest quality; the engine steps down only as far as stability requires (§4.2)")
	return t, nil
}

// MCUStudy runs Quetzal vs NoAdapt on all three device profiles — the two
// from Table 1 plus the STM32G071 — each in its matched environment.
func (sw *Sweep) MCUStudy(ctx context.Context) (*report.Table, error) {
	platforms := []struct {
		label   string
		profile string
		env     Environment
	}{
		{"apollo4", ProfileApollo4, Crowded},
		{"stm32g071", ProfileSTM32G0, Crowded},
		{"msp430fr5994", ProfileMSP430, MSP430Env},
	}
	systems := []string{SysNoAdapt, SysQuetzal}
	key := func(profile string, env Environment, id string) RunKey {
		return RunKey{System: id, Env: env, Profile: profile}
	}
	var keys []RunKey
	for _, p := range platforms {
		for _, id := range systems {
			keys = append(keys, key(p.profile, p.env, id))
		}
	}
	res, err := sw.Results(ctx, keys)
	if err != nil {
		return nil, err
	}
	t := report.New("Extension — microcontroller versatility (QZ vs NA per platform)",
		"mcu", "system", "discarded", "ibo", "reported", "highq")
	for _, p := range platforms {
		for _, id := range systems {
			r := res[key(p.profile, p.env, id)]
			t.AddRow(p.label, id,
				report.Pct(r.DiscardedFraction()),
				report.Pct(r.IBOFraction()),
				report.N(r.ReportedInteresting()),
				report.Pct(r.HighQualityShare()))
		}
	}
	t.AddNote("the STM32G071 is not in the paper's Table 1; included as a third divider-less target")
	return t, nil
}

// Serial-API wrappers, mirroring the Fig* wrappers in figures.go.

// JitterStudy sweeps execution-latency jitter (see Sweep.JitterStudy).
func (s Setup) JitterStudy() (*report.Table, error) {
	return NewSweep(s).JitterStudy(context.Background())
}

// CheckpointStudy contrasts checkpoint policies (see Sweep.CheckpointStudy).
func (s Setup) CheckpointStudy() (*report.Table, error) {
	return NewSweep(s).CheckpointStudy(context.Background())
}

// SeedStudy reports the cross-seed spread (see Sweep.SeedStudy).
func (s Setup) SeedStudy() (*report.Table, error) {
	return NewSweep(s).SeedStudy(context.Background())
}

// BufferStudy sweeps the input-buffer capacity (see Sweep.BufferStudy).
func (s Setup) BufferStudy() (*report.Table, error) {
	return NewSweep(s).BufferStudy(context.Background())
}

// LadderStudy runs the four-level degradation ladder (see Sweep.LadderStudy).
func (s Setup) LadderStudy() (*report.Table, error) {
	return NewSweep(s).LadderStudy(context.Background())
}

// MCUStudy runs all three device profiles (see Sweep.MCUStudy).
func (s Setup) MCUStudy() (*report.Table, error) {
	return NewSweep(s).MCUStudy(context.Background())
}
