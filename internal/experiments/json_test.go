package experiments

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"quetzal/internal/metrics"
	"quetzal/internal/policy"
	"quetzal/internal/runner"
	"quetzal/internal/sim"
)

func TestValidSystem(t *testing.T) {
	for _, id := range policy.Names() {
		if !ValidSystem(id) {
			t.Errorf("ValidSystem(%q) = false, want true", id)
		}
	}
	for _, id := range []string{"fixed-25", "fixed-1", "fixed-100"} {
		if !ValidSystem(id) {
			t.Errorf("ValidSystem(%q) = false, want true", id)
		}
	}
	for _, id := range []string{
		"", "quetzal", "QZ", "fixed-0", "fixed-101", "fixed-25x", "fixed-007",
		"fixed--5", "fixed-", "qz ", " qz",
	} {
		if ValidSystem(id) {
			t.Errorf("ValidSystem(%q) = true, want false", id)
		}
	}
}

func TestKeySpecRunKeyValidation(t *testing.T) {
	cases := []struct {
		name    string
		spec    KeySpec
		wantErr string // substring; empty → must resolve
	}{
		{name: "minimal", spec: KeySpec{System: "qz", Env: "crowded"}},
		{
			name: "all fields",
			spec: KeySpec{
				System: "qz-fcfs", Env: "less-crowded", Profile: ProfileMSP430,
				Events: 1000, Seed: -3, Cells: 12, TaskWindow: 16, ArrivalWindow: 32,
				CapturePeriod: 0.5, Engine: "event", BufferCapacity: 20,
				Jitter: 0.2, Checkpoint: "periodic", CheckpointInterval: 2,
				StoreCapacitance: 0.0033,
			},
		},
		{name: "custom env", spec: KeySpec{System: "na", Env: "lab-bench", MaxDuration: 45}},
		{name: "fixed threshold", spec: KeySpec{System: "fixed-25", Env: "crowded"}},
		{name: "missing system", spec: KeySpec{Env: "crowded"}, wantErr: "missing system"},
		{name: "unknown system", spec: KeySpec{System: "magic", Env: "crowded"}, wantErr: "unknown system"},
		{name: "missing env", spec: KeySpec{System: "qz"}, wantErr: "missing env"},
		{name: "unknown env no duration", spec: KeySpec{System: "qz", Env: "mars"}, wantErr: "custom envs need max_duration"},
		{
			name:    "known env conflicting duration",
			spec:    KeySpec{System: "qz", Env: "crowded", MaxDuration: 99},
			wantErr: "max duration",
		},
		{name: "known env matching duration", spec: KeySpec{System: "qz", Env: "crowded", MaxDuration: 60}},
		{
			name:    "absurd duration",
			spec:    KeySpec{System: "qz", Env: "forever", MaxDuration: 1e12},
			wantErr: "max_duration",
		},
		{
			name:    "tiny duration",
			spec:    KeySpec{System: "qz", Env: "blink", MaxDuration: 0.01},
			wantErr: "max_duration",
		},
		{
			name:    "long env name",
			spec:    KeySpec{System: "qz", Env: strings.Repeat("x", 65), MaxDuration: 10},
			wantErr: "64 bytes",
		},
		{name: "unknown profile", spec: KeySpec{System: "qz", Env: "crowded", Profile: "z80"}, wantErr: "unknown profile"},
		{name: "unknown engine", spec: KeySpec{System: "qz", Env: "crowded", Engine: "warp"}, wantErr: "unknown engine"},
		{name: "unknown checkpoint", spec: KeySpec{System: "qz", Env: "crowded", Checkpoint: "psychic"}, wantErr: "checkpoint"},
		{name: "events too big", spec: KeySpec{System: "qz", Env: "crowded", Events: MaxSpecEvents + 1}, wantErr: "events"},
		{name: "negative events", spec: KeySpec{System: "qz", Env: "crowded", Events: -4}, wantErr: "events"},
		{name: "jitter above one", spec: KeySpec{System: "qz", Env: "crowded", Jitter: 1.5}, wantErr: "jitter"},
		{name: "negative jitter", spec: KeySpec{System: "qz", Env: "crowded", Jitter: -0.1}, wantErr: "jitter"},
		{name: "capture period too fast", spec: KeySpec{System: "qz", Env: "crowded", CapturePeriod: 1e-9}, wantErr: "capture_period"},
		{name: "buffer too big", spec: KeySpec{System: "qz", Env: "crowded", BufferCapacity: 1 << 21}, wantErr: "buffer_capacity"},
		{name: "cells too many", spec: KeySpec{System: "qz", Env: "crowded", Cells: 500}, wantErr: "cells"},
		{name: "capacitance absurd", spec: KeySpec{System: "qz", Env: "crowded", StoreCapacitance: 100}, wantErr: "store_capacitance"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			key, err := tc.spec.RunKey()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("RunKey() error: %v", err)
				}
				if key.System != tc.spec.System {
					t.Fatalf("System = %q, want %q", key.System, tc.spec.System)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("RunKey() error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestKeySpecResolvesSharedKeys pins the coalescing contract: two specs for
// the same run — decoded from different JSON bodies — must resolve to
// identical comparable keys, or the service's single-flight memoization
// would silently stop de-duplicating.
func TestKeySpecResolvesSharedKeys(t *testing.T) {
	bodies := []string{
		`{"system":"qz","env":"crowded","events":100,"engine":"event"}`,
		`{"engine":"event","events":100,"env":"crowded","system":"qz"}`,
	}
	var keys []RunKey
	for _, b := range bodies {
		var sp KeySpec
		if err := json.Unmarshal([]byte(b), &sp); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		k, err := sp.RunKey()
		if err != nil {
			t.Fatalf("RunKey %s: %v", b, err)
		}
		keys = append(keys, k)
	}
	if keys[0] != keys[1] {
		t.Fatalf("equivalent specs resolved to distinct keys:\n%v\n%v", keys[0], keys[1])
	}
	// Known env names must resolve to the package's Environment values so
	// service keys share cache entries with CLI sweep keys.
	if keys[0].Env != Crowded {
		t.Fatalf("Env = %+v, want the canonical Crowded value %+v", keys[0].Env, Crowded)
	}
	if keys[0].Engine != sim.EventDriven {
		t.Fatalf("Engine = %v, want EventDriven", keys[0].Engine)
	}
}

// TestExecuteMatchesSweep pins that the exported Execute path is the same
// execution the CLI sweep uses: Execute generates each run's traces, a
// Sweep shares them among the keys of one (seed, environment), and at any
// worker count both return identical results for every key.
func TestExecuteMatchesSweep(t *testing.T) {
	setup := DefaultSetup()
	setup.NumEvents = 30
	setup.Engine = sim.EventDriven
	var keys []RunKey
	for _, seed := range []int64{3, 4} {
		for _, k := range LeaguePlan([]string{SysQuetzal, SysNoAdapt, SysMDP}, []Environment{LessCrowded, Faulty}) {
			k.Seed = seed
			keys = append(keys, k)
		}
	}
	want := make([]metrics.Results, len(keys))
	for i, k := range keys {
		r, err := setup.Execute(context.Background(), k)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		want[i] = r
	}
	for _, workers := range []int{1, 3} {
		got, err := NewSweepConfig(setup, runner.Config[RunKey]{Workers: workers}).Results(context.Background(), keys)
		if err != nil {
			t.Fatalf("Sweep: %v", err)
		}
		for i, k := range keys {
			if got[k] != want[i] {
				t.Errorf("%d workers: Execute and the Sweep disagree on %s:\n%+v\n%+v", workers, k, want[i], got[k])
			}
		}
	}
}
