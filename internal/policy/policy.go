// Package policy is the controller registry: every decision-making "brain"
// the simulator can drive — the Quetzal runtime (Algorithms 1/2), its
// estimator/scheduling/ablation variants, the paper's comparison
// baselines, and the post-paper competitor strategies (MDP value
// iteration, EnSuRe backup windows, greedy interweaving) — is constructed
// through one deterministic name registry.
//
// Every entry builds a core.Controller directly. The quetzal entries return
// the unwrapped *core.Runtime, which the engine type-asserts for PID
// event-log lines (golden traces depend on it); the competitors implement
// core.Controller themselves and declare their per-decision energy charge
// through RatioOps.
//
// The registry is the single source of policy names: experiments.Setup,
// engine.Config.Policy, simgen's generated dimension, the fleet layer and
// the KeySpec/FleetSpec validation gates all resolve through it, so adding
// a brain here makes it reachable from every harness surface at once.
package policy
