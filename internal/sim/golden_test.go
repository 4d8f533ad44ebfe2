package sim_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"quetzal/internal/engine"
	"quetzal/internal/sim"
	"quetzal/internal/simgen"
)

// The golden-trace regression layer: each scenario's full event stream
// (every capture, arrival, scheduling decision, classification,
// transmission, job completion and power transition, with timestamps) is
// hashed into a fingerprint committed under testdata/. Any behavioral
// change to either engine — intended or not — moves a fingerprint and
// fails this test; run
//
//	go test ./internal/sim/ -run TestGoldenTraces -update
//
// to regenerate after an INTENDED change, and review the fingerprint diff
// together with the code change (see DESIGN.md §8).
//
// The stream is deterministic by construction (seeded RNG, no map
// iteration, no wall-clock); timestamps are %.6f-formatted float64s, so
// fingerprints are portable across platforms with IEEE-754 float64
// semantics (CI and the reference environment are both amd64).
var update = flag.Bool("update", false, "rewrite golden trace fingerprints")

// goldenScenarios name the runs whose event streams are pinned. Params are
// simgen integer-knob recipes: compact, printable, engine-independent.
var goldenScenarios = []struct {
	name string
	p    simgen.Params
}{
	{"quetzal-constant", simgen.Params{Seed: 101, System: 0, PowerMW: 40, NumEvents: 5, EventDurS: 10, CapMF: 33, BufCap: 10, CapturePerMS: 1000}},
	{"noadapt-constant", simgen.Params{Seed: 102, System: 1, PowerMW: 40, NumEvents: 5, EventDurS: 10, CapMF: 33, BufCap: 10, CapturePerMS: 1000}},
	{"quetzal-square-starved", simgen.Params{Seed: 103, System: 0, PowerKind: 1, PowerMW: 12, NumEvents: 5, EventDurS: 10, CapMF: 20, BufCap: 6, CapturePerMS: 800}},
	{"catnap-solar", simgen.Params{Seed: 104, System: 3, PowerKind: 2, PowerMW: 30, NumEvents: 5, EventDurS: 10, CapMF: 33, BufCap: 10, CapturePerMS: 1000}},
	{"noadapt-periodic-ckpt", simgen.Params{Seed: 105, System: 1, Checkpoint: 2, PowerMW: 10, NumEvents: 4, EventDurS: 8, CapMF: 15, BufCap: 8, CapturePerMS: 1000}},
	{"pzo-msp430-jitter", simgen.Params{Seed: 106, Profile: 1, System: 5, JitterPct: 20, PowerMW: 25, NumEvents: 5, EventDurS: 10, CapMF: 33, BufCap: 10, CapturePerMS: 1000}},
	// Hardware-realism scenarios (internal/faults): transient task faults
	// with a k=2 reserve plus a 10 s harvester dropout and the default
	// per-sample measurement cost; and a hot junction with a ±5 °C diurnal
	// swing around 45 °C so quantisation skew moves the event stream.
	{"faulty", simgen.Params{Seed: 107, System: 0, PowerMW: 40, NumEvents: 5, EventDurS: 10, CapMF: 33, BufCap: 10, CapturePerMS: 1000, FaultPct: 40, FaultLimit: 2, DropoutS: 10, MeasNJ: 250}},
	{"hot", simgen.Params{Seed: 108, System: 0, PowerMW: 25, NumEvents: 5, EventDurS: 10, CapMF: 33, BufCap: 10, CapturePerMS: 1000, TempC: 45, TempSwing: 5}},
}

// goldenEntry is one committed fingerprint.
type goldenEntry struct {
	SHA256 string `json:"sha256"`
	Lines  int    `json:"lines"`
}

const goldenPath = "testdata/golden.json"

// noObserver is a no-op observer; registering it turns the crawl replay off.
var noObserver = engine.FuncObserver{}

// lineCountingHash tees the event stream into a hash and a line count.
type lineCountingHash struct {
	h     hash.Hash
	lines int
}

func (w *lineCountingHash) Write(p []byte) (int, error) {
	for _, b := range p {
		if b == '\n' {
			w.lines++
		}
	}
	return w.h.Write(p)
}

// fingerprint runs one scenario under one engine and hashes its event log.
// A no-op observer keeps the crawl replay off, so the pinned fingerprints
// are those of the per-segment path; TestGoldenLockstepParity holds the
// replay to them.
func fingerprint(t *testing.T, p simgen.Params, engine sim.EngineKind) goldenEntry {
	t.Helper()
	cfg, err := p.Config(engine)
	if err != nil {
		t.Fatalf("%v: %v", p, err)
	}
	w := &lineCountingHash{h: sha256.New()}
	bw := bufio.NewWriter(w)
	cfg.EventLog = bw
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatalf("%v: %v", p, err)
	}
	s.Machine().Observe(noObserver)
	if _, err := s.Run(); err != nil {
		t.Fatalf("%v: %v", p, err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return goldenEntry{SHA256: hex.EncodeToString(w.h.Sum(nil)), Lines: w.lines}
}

func TestGoldenTraces(t *testing.T) {
	got := map[string]goldenEntry{}
	for _, sc := range goldenScenarios {
		p := sc.p.Normalize()
		if p != sc.p {
			t.Errorf("scenario %s: params %v not normalized", sc.name, sc.p)
		}
		for _, engine := range []sim.EngineKind{sim.FixedIncrement, sim.EventDriven} {
			key := fmt.Sprintf("%s/%s", sc.name, engine)
			got[key] = fingerprint(t, p, engine)
		}
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), goldenPath)
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("no golden file (%v) — run: go test ./internal/sim/ -run TestGoldenTraces -update", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt %s: %v", goldenPath, err)
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: no committed fingerprint — run with -update and commit the diff", k)
			continue
		}
		if g := got[k]; g != w {
			t.Errorf("%s: event stream changed: %d lines sha %.12s…, committed %d lines sha %.12s…\n"+
				"  if this change is intended, rerun with -update and commit testdata/golden.json alongside it",
				k, g.Lines, g.SHA256, w.Lines, w.SHA256)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: committed fingerprint has no scenario (stale entry in %s)", k, goldenPath)
		}
	}
}

// TestGoldenDeterminism guards the property the fingerprints depend on:
// the same scenario hashed twice yields the same stream.
func TestGoldenDeterminism(t *testing.T) {
	p := goldenScenarios[0].p.Normalize()
	a := fingerprint(t, p, sim.EventDriven)
	b := fingerprint(t, p, sim.EventDriven)
	if a != b {
		t.Fatalf("event stream not deterministic: %+v vs %+v", a, b)
	}
}
