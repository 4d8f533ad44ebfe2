package sim_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"quetzal/internal/sim"
	"quetzal/internal/simgen"
)

// The crawl replay's speed contract: it must reproduce the committed
// fingerprints, not earn its own golden entries. The pinned
// `<scenario>/event-driven` fingerprints come from checked runs, on which
// the invariant observer keeps the replay off. Every scenario in
// testdata/golden.json runs here through sim.Lockstep with checks off (so
// the replay is actually active) and must hash to that fingerprint byte
// for byte. A divergence means the fast path changed physics.
func TestGoldenLockstepParity(t *testing.T) {
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("no golden file (%v) — run: go test ./internal/sim/ -run TestGoldenTraces -update", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt %s: %v", goldenPath, err)
	}
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			pinned, ok := want[fmt.Sprintf("%s/%s", sc.name, sim.EventDriven)]
			if !ok {
				t.Fatalf("no committed event-driven fingerprint for %s", sc.name)
			}
			got := fingerprintLockstep(t, sc.p.Normalize())
			if got != pinned {
				t.Errorf("replay-on stream diverged from the pinned event-driven fingerprint:\n"+
					"  replay on: %d lines sha %.12s…\n  pinned:    %d lines sha %.12s…",
					got.Lines, got.SHA256, pinned.Lines, pinned.SHA256)
			}
		})
	}
}

// fingerprintLockstep mirrors fingerprint but selects sim.Lockstep with
// checks off, the configuration under which the crawl replay engages.
func fingerprintLockstep(t *testing.T, p simgen.Params) goldenEntry {
	t.Helper()
	cfg, err := p.Config(sim.Lockstep)
	if err != nil {
		t.Fatalf("%v: %v", p, err)
	}
	cfg.Checks = sim.ChecksOff
	w := &lineCountingHash{h: sha256.New()}
	bw := bufio.NewWriter(w)
	cfg.EventLog = bw
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatalf("%v: %v", p, err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatalf("%v: %v", p, err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return goldenEntry{SHA256: hex.EncodeToString(w.h.Sum(nil)), Lines: w.lines}
}
