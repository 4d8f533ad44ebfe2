package engine

import (
	"strings"
	"testing"

	"quetzal/internal/baseline"
	"quetzal/internal/metrics"
	"quetzal/internal/policy"
)

// policyConfig is lockstepConfig with the controller replaced by a registry
// policy name.
func policyConfig(t testing.TB, sc lockstepScenario, name string) Config {
	t.Helper()
	cfg := lockstepConfig(t, sc)
	cfg.Controller = nil
	cfg.Policy = name
	return cfg
}

// TestConfigPolicySeam pins the Config.Policy resolution rules: exactly one
// of Controller/Policy, unknown names rejected, known names built through
// the registry.
func TestConfigPolicySeam(t *testing.T) {
	sc := lockstepScenarios()[0]

	t.Run("policy builds", func(t *testing.T) {
		m, err := New(policyConfig(t, sc, policy.NoAdapt))
		if err != nil {
			t.Fatalf("New with Policy=na: %v", err)
		}
		if got := m.cfg.Controller.Name(); got == "" {
			t.Fatal("resolved controller has no name")
		}
	})
	t.Run("both rejected", func(t *testing.T) {
		cfg := lockstepConfig(t, sc)
		cfg.Policy = policy.NoAdapt
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
			t.Fatalf("err = %v, want 'mutually exclusive'", err)
		}
	})
	t.Run("neither rejected", func(t *testing.T) {
		cfg := lockstepConfig(t, sc)
		cfg.Controller = nil
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "Controller or Policy") {
			t.Fatalf("err = %v, want 'Controller or Policy is required'", err)
		}
	})
	t.Run("unknown rejected", func(t *testing.T) {
		if _, err := New(policyConfig(t, sc, "magic")); err == nil || !strings.Contains(err.Error(), "unknown policy") {
			t.Fatalf("err = %v, want 'unknown policy'", err)
		}
	})
	t.Run("ideal buffer capacity", func(t *testing.T) {
		m, err := New(policyConfig(t, sc, policy.Ideal))
		if err != nil {
			t.Fatal(err)
		}
		if got := m.buf.Capacity(); got != policy.IdealBufferCapacity {
			t.Fatalf("buffer capacity = %d, want the ideal policy's %d", got, policy.IdealBufferCapacity)
		}
	})
	t.Run("explicit buffer capacity wins", func(t *testing.T) {
		cfg := policyConfig(t, sc, policy.Ideal)
		cfg.BufferCapacity = 9
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.buf.Capacity(); got != 9 {
			t.Fatalf("buffer capacity = %d, want the explicit 9", got)
		}
	})
}

// TestPolicyMatchesController pins that a policy-built run is the same run
// as its hand-built controller: identical event-log fingerprints and
// results, so the registry seam adds no behavior.
func TestPolicyMatchesController(t *testing.T) {
	sc := lockstepScenarios()[0]

	viaName := policyConfig(t, sc, policy.NoAdapt)
	nameHash, nameRes, _ := runFingerprint(t, viaName)

	viaCtl := lockstepConfig(t, sc)
	ctl, err := baseline.NoAdapt(viaCtl.App)
	if err != nil {
		t.Fatal(err)
	}
	viaCtl.Controller = ctl
	ctlHash, ctlRes, _ := runFingerprint(t, viaCtl)

	if nameHash != ctlHash {
		t.Errorf("event-log stream diverged: policy %s vs controller %s", nameHash, ctlHash)
	}
	if diffs := metrics.Diff(nameRes, ctlRes, metrics.Tolerance{}); len(diffs) > 0 {
		t.Errorf("results diverged:\n%v", diffs)
	}
}

// TestReplaySensitivePolicyDisablesReplay: a strategy that reads the energy
// store (MDP) must keep the crawl replay off — the replay does not freeze
// store state — while staying bit-identical to the replay-off reference.
func TestReplaySensitivePolicyDisablesReplay(t *testing.T) {
	sc := lockstepScenarios()[0] // bench-square: replay engages for insensitive controllers

	// Control: the insensitive baseline replays on this workload.
	base, err := New(lockstepConfig(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Run(t.Context(), LockstepStepper{}); err != nil {
		t.Fatal(err)
	}
	if base.ReplayedSteps() == 0 {
		t.Fatal("control run never engaged the replay; the scenario no longer exercises the gate")
	}

	for _, name := range []string{policy.MDPName, policy.InterweaveName} {
		t.Run(name, func(t *testing.T) {
			refHash, refRes, _ := runFingerprint(t, policyConfig(t, sc, name), replayOff)
			lockHash, lockRes, lm := runFingerprint(t, policyConfig(t, sc, name))
			if lm.ReplayedSteps() != 0 {
				t.Errorf("replay committed %d steps for replay-sensitive policy %s", lm.ReplayedSteps(), name)
			}
			if refHash != lockHash {
				t.Errorf("event-log stream diverged: replay off %s vs unobserved %s", refHash, lockHash)
			}
			if diffs := metrics.Diff(refRes, lockRes, metrics.Tolerance{}); len(diffs) > 0 {
				t.Errorf("results diverged:\n%v", diffs)
			}
		})
	}

	// EnSuRe reads only λ and the quantized pin, both frozen by the crawl
	// classifier, so it keeps the fast path.
	_, _, em := runFingerprint(t, policyConfig(t, sc, policy.EnSuReName))
	if em.ReplayedSteps() == 0 {
		t.Error("ensure (replay-insensitive) never engaged the replay on the crawl-heavy workload")
	}
}
