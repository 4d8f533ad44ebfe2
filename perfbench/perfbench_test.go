package main

// Self-test of the benchmark: every workload runs at a tiny size, untraced
// and traced, and must print every metric with its unit and pass its own
// correctness gate; a corrupted result must fail the gate; and the traced
// mirrors must reproduce the program's results bit for bit.

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"quetzal/internal/experiments"
	"quetzal/internal/fleet"
	"quetzal/internal/metrics"
)

var tinySizes = sizes{
	setupReps:      1,
	table1Events:   20,
	table1Distinct: 1,
	faultyEvents:   20,
	faultyDistinct: 1,
	fleetDevices:   48,
	fleetDistinct:  1,
	qzEvents:       10,
	qzRate:         40,
	qzHot:          2,
}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				p := params{seed: 3, seconds: 0.5, traced: traced, workDir: t.TempDir(), size: tinySizes}
				o, err := workloads[name](context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				line, err := render(o, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Fatalf("gate failed: %+v, problems %q", line, o.problems)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := line.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %q", d.name, m, d.unit)
					}
					if !traced && m.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", d.name)
					}
				}
				if o.digest == "" {
					t.Error("no results digest")
				}
			})
		}
	}
}

func TestCorruptResultFailsGate(t *testing.T) {
	s := leagueSpec{envs: []experiments.Environment{experiments.Crowded}, events: 20}.setup()
	keys := []experiments.RunKey{{System: experiments.SysQuetzal, Env: experiments.Crowded, Seed: 5}}
	pr := leaguePass(context.Background(), s, keys, 1)
	if pr.err != nil {
		t.Fatal(pr.err)
	}
	o := &outcome{metrics: map[string]float64{}, attempted: 1}
	if checkResults(o, "clean", pr.results) != 0 || o.failed != 0 {
		t.Fatalf("clean result failed the gate: %q", o.problems)
	}
	corrupt := append([]metrics.Results(nil), pr.results...)
	corrupt[0].CaptureMisses = corrupt[0].Captures + 1
	if checkResults(o, "corrupt", corrupt) != 1 || o.failed != 1 {
		t.Fatalf("corrupted result passed the gate")
	}
	line, _ := render(o, true)
	if line.Correct {
		t.Fatal("a run with a gate violation reports correct")
	}

	// Set-up's construction of runs is checked against the Sweep's results.
	o = &outcome{metrics: map[string]float64{}}
	if err := checkBuildRun(context.Background(), o, s, keys, pr.results); err != nil || o.failed != 0 {
		t.Fatalf("set-up's construction disagrees with the Sweep: %v %q", err, o.problems)
	}
	if err := checkBuildRun(context.Background(), o, s, keys, corrupt); err != nil || o.failed != 1 {
		t.Fatalf("a corrupted Sweep result passed the set-up construction check")
	}
}

func TestLeagueMirrorMatchesSweep(t *testing.T) {
	s := leagueSpec{events: 20}.setup()
	keys := leagueSpec{envs: []experiments.Environment{experiments.Faulty, experiments.MSP430Env}}.keys([]int64{7})
	pr := leaguePass(context.Background(), s, keys, 1)
	if pr.err != nil {
		t.Fatal(pr.err)
	}
	lt := newLayerTimes()
	for i, k := range keys {
		st, err := mirrorRun(context.Background(), s, k, k.String(), lt)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(st.res)
		b, _ := json.Marshal(pr.results[i])
		if !bytes.Equal(a, b) {
			t.Errorf("%s: mirror results differ from the sweep's", k)
		}
	}
}

func TestFleetMirrorMatchesRun(t *testing.T) {
	plan, err := fleetPlan(70, 11)
	if err != nil {
		t.Fatal(err)
	}
	plan.ShardSize = 32 // several shards, one partial
	agg, _, err := fleet.Run(context.Background(), plan, fleet.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := &outcome{metrics: map[string]float64{}}
	var ft fleetTrace
	mirror, err := newFleetMirror(plan).run(context.Background(), o, newLayerTimes(), &ft)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := digestJSON(agg)
	b, _ := digestJSON(mirror)
	if a != b || o.failed != 0 || ft.devices != plan.Devices {
		t.Fatalf("mirror aggregate %s, fleet.Run %s (problems %q, %d devices)", b, a, o.problems, ft.devices)
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "fleet-solar", "--seconds", "1", "--trace", "2"},
		{"--workload", "fleet-solar", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestQuetzaldScheduleIsSeeded(t *testing.T) {
	_, _, a, err := qzSchedule(9, 50, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, _, b, _ := qzSchedule(9, 50, 2, 3)
	_, _, c, _ := qzSchedule(10, 50, 2, 3)
	same := func(x, y []qzRequest) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].due != y[i].due || !bytes.Equal(x[i].k.body, y[i].k.body) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave different schedules")
	}
	if same(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	var classes [numClasses]int
	for _, r := range a {
		classes[r.k.class]++
		if !strings.Contains(string(r.k.body), `"system":"qz"`) {
			t.Errorf("request %s is not a qz run", r.k.body)
		}
	}
	for c, n := range classes {
		if n == 0 {
			t.Errorf("class %d never requested", c)
		}
	}
}
