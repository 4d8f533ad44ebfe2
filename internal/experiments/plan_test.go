package experiments

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"quetzal/internal/metrics"
	"quetzal/internal/report"
	"quetzal/internal/runner"
	"quetzal/internal/sim"
	"quetzal/internal/trace"
)

// sweepSetup is a fast base setup for sweep tests: few events on the
// event-driven engine.
func sweepSetup() Setup {
	s := DefaultSetup()
	s.NumEvents = 30
	s.Engine = sim.EventDriven
	return s
}

// TestSweepParallelDeterminism is the refactor's correctness bar: with a
// fixed Setup, a representative figure subset rendered through a 1-worker
// sweep and an 8-worker sweep (figures themselves also running
// concurrently) must be byte-identical.
func TestSweepParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the figure subset twice")
	}
	figs := []func(*Sweep, context.Context) (*report.Table, error){
		(*Sweep).Fig2b,
		(*Sweep).Fig3,
		(*Sweep).Fig9,
		(*Sweep).Fig11c,
		(*Sweep).Fig12,
		(*Sweep).JitterStudy,
	}
	render := func(workers int) string {
		sw := NewSweepConfig(sweepSetup(), runner.Config[RunKey]{Workers: workers})
		ctx := context.Background()
		tables := make([]*report.Table, len(figs))
		errs := make([]error, len(figs))
		var wg sync.WaitGroup
		for i, fig := range figs {
			wg.Add(1)
			go func(i int, fig func(*Sweep, context.Context) (*report.Table, error)) {
				defer wg.Done()
				tables[i], errs[i] = fig(sw, ctx)
			}(i, fig)
		}
		wg.Wait()
		var buf bytes.Buffer
		for i := range figs {
			if errs[i] != nil {
				t.Fatalf("workers=%d fig %d: %v", workers, i, errs[i])
			}
			if err := tables[i].Render(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	serial, parallel := render(1), render(8)
	if serial != parallel {
		t.Errorf("parallel sweep output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestSweepCacheSharing: figures that need the same runs must share them —
// Fig3 and Fig11c both run quetzal/crowded, and JitterStudy's zero-jitter
// rows are exactly the base runs.
func TestSweepCacheSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two figures")
	}
	sw := NewSweep(sweepSetup())
	ctx := context.Background()
	if _, err := sw.Fig3(ctx); err != nil {
		t.Fatal(err)
	}
	after3 := sw.Ledger()
	if after3.CacheHits != 0 {
		t.Errorf("first figure already has %d cache hits", after3.CacheHits)
	}
	if _, err := sw.Fig11c(ctx); err != nil {
		t.Fatal(err)
	}
	l := sw.Ledger()
	if l.CacheHits == 0 {
		t.Errorf("Fig3+Fig11c shared no runs: %v", l)
	}
	// quetzal/crowded must have executed exactly once across both figures.
	wantExecuted := after3.Executed + 8 // Fig11c adds 8 fixed-threshold runs
	if l.Executed != wantExecuted {
		t.Errorf("executed = %d, want %d (quetzal/crowded must not re-run)", l.Executed, wantExecuted)
	}
}

// TestSweepGet: direct key resolution works and hits the memo.
func TestSweepGet(t *testing.T) {
	sw := NewSweep(sweepSetup())
	ctx := context.Background()
	k := RunKey{System: SysNoAdapt, Env: LessCrowded}
	a, err := sw.Get(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sw.Get(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("memoized result differs from original")
	}
	if l := sw.Ledger(); l.Executed != 1 || l.CacheHits != 1 {
		t.Errorf("ledger = %+v, want 1 executed / 1 hit", l)
	}
}

// TestSweepCancellation: a canceled context aborts a sweep with a context
// error instead of running it to completion.
func TestSweepCancellation(t *testing.T) {
	s := DefaultSetup() // fixed-increment: slow enough to outlive the ctx
	s.NumEvents = 200
	sw := NewSweep(s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sw.Get(ctx, RunKey{System: SysNoAdapt, Env: Crowded}); err == nil {
		t.Error("sweep ran to completion under a canceled context")
	}
}

// TestRunKeyResolve: deviations land in the resolved setup; unknown
// profiles fail.
func TestRunKeyResolve(t *testing.T) {
	base := sweepSetup()
	resolved, mutate, err := base.resolve(RunKey{
		System: SysQuetzal, Env: Crowded,
		Profile: ProfileMSP430, NumEvents: 99, Cells: 4, CapturePeriod: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resolved.Profile.MCU.Name != "msp430fr5994" {
		t.Errorf("profile = %s, want msp430fr5994", resolved.Profile.MCU.Name)
	}
	if resolved.NumEvents != 99 || resolved.Cells != 4 || resolved.CapturePeriod != 2 {
		t.Errorf("deviations not applied: %+v", resolved)
	}
	if mutate != nil {
		t.Error("setup-only key produced a simulator mutation")
	}

	// The zero key resolves to the base setup untouched.
	same, mutate, err := base.resolve(RunKey{System: SysQuetzal, Env: Crowded})
	if err != nil {
		t.Fatal(err)
	}
	if same.NumEvents != base.NumEvents || same.Seed != base.Seed || mutate != nil {
		t.Error("zero key changed the base setup")
	}

	if _, _, err := base.resolve(RunKey{System: SysQuetzal, Env: Crowded, Profile: "tms9900"}); err == nil {
		t.Error("resolve accepted an unknown profile")
	}
}

// TestRunKeyString: keys render compactly with only non-default fields.
func TestRunKeyString(t *testing.T) {
	k := RunKey{System: SysQuetzal, Env: Crowded}
	if got := k.String(); got != "qz/crowded" {
		t.Errorf("base key = %q, want qz/crowded", got)
	}
	k.NumEvents = 100
	k.Jitter = 0.2
	s := k.String()
	for _, frag := range []string{"qz/crowded", "events=100", "jitter=0.2"} {
		if !strings.Contains(s, frag) {
			t.Errorf("key string %q missing %q", s, frag)
		}
	}
}

// TestDiscardRowZeroDenominator: the regression for the old nz() helper —
// a run with zero interesting arrivals must render its false-negative rate
// as "n/a", not a misleading "0.0%".
func TestDiscardRowZeroDenominator(t *testing.T) {
	tbl := report.New("t", discardColumns...)
	discardRow(tbl, "env", metrics.Results{System: "x"})
	if len(tbl.Rows) != 1 {
		t.Fatal("no row")
	}
	if got := tbl.Rows[0][4]; got != "n/a" {
		t.Errorf("falseneg cell with zero arrivals = %q, want n/a", got)
	}
}

// TestTraceShareBoundedLRU pins the Sweep's trace sharing: keys resolving to
// the same trace inputs get the same pair, a different environment or seed
// gets its own, and at most one pair per worker is held, least recently
// used out first.
func TestTraceShareBoundedLRU(t *testing.T) {
	s := DefaultSetup()
	s.NumEvents = 5
	other := s
	other.Seed++
	c := traceShare{size: 2}
	get := func(s Setup, env Environment) *trace.EventTrace {
		t.Helper()
		_, events := c.get(s, env)
		if len(c.entries) > c.size {
			t.Fatalf("holding %d pairs, bound %d", len(c.entries), c.size)
		}
		return events
	}
	a := get(s, Crowded)
	if get(s, Environment{Name: "twin", MaxDuration: Crowded.MaxDuration}) != a {
		t.Fatal("same trace inputs under another environment name not shared")
	}
	b := get(s, LessCrowded)
	if b == a || get(s, Crowded) != a {
		t.Fatal("distinct environments shared a pair, or a held pair was regenerated")
	}
	// Held, least recent first: b, a. Another seed evicts b.
	if get(other, Crowded) == a || get(s, Crowded) != a {
		t.Fatal("distinct seeds shared a pair, or a held pair was regenerated")
	}
	if get(s, LessCrowded) == b {
		t.Fatal("evicted pair still handed out")
	}
}
