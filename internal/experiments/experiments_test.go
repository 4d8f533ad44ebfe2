package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"quetzal/internal/device"
	"quetzal/internal/report"
	"quetzal/internal/sim"
)

// smallSetup keeps runs fast: 60 events is enough to exercise every code
// path and preserve the coarse orderings the assertions check.
func smallSetup() Setup {
	s := DefaultSetup()
	s.NumEvents = 60
	return s
}

func TestRunUnknownSystem(t *testing.T) {
	if _, err := smallSetup().Run("nope", Crowded); err == nil {
		t.Error("Run accepted unknown system id")
	}
	if _, err := smallSetup().Run("fixed-0", Crowded); err == nil {
		t.Error("Run accepted fixed-0")
	}
	if _, err := smallSetup().Run("fixed-200", Crowded); err == nil {
		t.Error("Run accepted fixed-200")
	}
}

func TestAllSystemsRunClean(t *testing.T) {
	s := smallSetup()
	systems := []string{
		SysQuetzal, SysQuetzalDiv, SysQuetzalAvg, SysQuetzalFCFS, SysQuetzalLCFS,
		SysQuetzalCapt, SysQuetzalNoPID, SysQuetzalNoIBO,
		SysNoAdapt, SysAlwaysDeg, SysCatNap, SysPZO, SysPZI, SysIdeal,
		FixedThresholdID(0.25), FixedThresholdID(0.50), FixedThresholdID(0.75),
	}
	for _, id := range systems {
		res, err := s.Run(id, Crowded)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := res.Check(); err != nil {
			t.Errorf("%s: inconsistent results: %v", id, err)
		}
		if res.InterestingArrivals == 0 {
			t.Errorf("%s: no interesting arrivals", id)
		}
	}
}

func TestIdealIsAnalytic(t *testing.T) {
	s := smallSetup()
	res, err := s.Run(SysIdeal, Crowded)
	if err != nil {
		t.Fatal(err)
	}
	if res.IBOLossesInteresting() != 0 || res.IBODropsOther != 0 {
		t.Error("ideal baseline has IBO losses")
	}
	if res.HighQualityShare() != 1 {
		t.Errorf("ideal high-quality share = %g, want 1", res.HighQualityShare())
	}
	// Ideal's losses are exactly the HQ classifier's false negatives.
	wantFN := int(float64(res.InterestingArrivals)*s.Profile.MLOptions[0].FalseNegative + 0.5)
	if res.FalseNegatives != wantFN {
		t.Errorf("ideal FN = %d, want %d", res.FalseNegatives, wantFN)
	}
}

// The reproduction's headline orderings, asserted coarsely so the test is
// robust to calibration changes: Quetzal must beat NoAdapt and CatNap on
// total discards, and the Ideal baseline must lower-bound everyone.
func TestHeadlineOrderings(t *testing.T) {
	s := smallSetup()
	res, err := s.runAll([]string{SysIdeal, SysNoAdapt, SysCatNap, SysQuetzal}, Crowded)
	if err != nil {
		t.Fatal(err)
	}
	qz, na, cn, ideal := res[SysQuetzal], res[SysNoAdapt], res[SysCatNap], res[SysIdeal]
	if qz.DiscardedFraction() >= na.DiscardedFraction() {
		t.Errorf("quetzal %.3f not below noadapt %.3f", qz.DiscardedFraction(), na.DiscardedFraction())
	}
	if qz.DiscardedFraction() >= cn.DiscardedFraction() {
		t.Errorf("quetzal %.3f not below catnap %.3f", qz.DiscardedFraction(), cn.DiscardedFraction())
	}
	if ideal.DiscardedFraction() > qz.DiscardedFraction() {
		t.Errorf("ideal %.3f above quetzal %.3f", ideal.DiscardedFraction(), qz.DiscardedFraction())
	}
	// Quetzal's IBO-only losses must be far below NoAdapt's (the paper's
	// 5.7–16.6x claims; we assert ≥ 3x).
	if qz.IBOFraction()*3 > na.IBOFraction() {
		t.Errorf("quetzal IBO %.3f not ≤ noadapt IBO %.3f / 3", qz.IBOFraction(), na.IBOFraction())
	}
}

func TestEnvironmentsOrdering(t *testing.T) {
	if MoreCrowded.MaxDuration != 600 || Crowded.MaxDuration != 60 ||
		LessCrowded.MaxDuration != 20 || MSP430Env.MaxDuration != 10 {
		t.Error("environment duration caps do not match Table 1")
	}
	if len(Environments) != 3 {
		t.Errorf("Environments = %d entries, want 3", len(Environments))
	}
}

func TestTracesScaleWithCells(t *testing.T) {
	s := smallSetup()
	p6, _ := s.Traces(Crowded)
	s.Cells = 3
	p3, _ := s.Traces(Crowded)
	a, b := p6.Power(100), p3.Power(100)
	if a <= 0 {
		t.Fatalf("no power at t=100: %g", a)
	}
	if got := b / a; got < 0.49 || got > 0.51 {
		t.Errorf("3-cell power ratio = %g, want 0.5", got)
	}
}

func TestFixedThresholdID(t *testing.T) {
	if got := FixedThresholdID(0.25); got != "fixed-25" {
		t.Errorf("FixedThresholdID = %q", got)
	}
}

func TestFiguresRender(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness is slow")
	}
	s := smallSetup()
	// Render every figure through the harness and check non-emptiness.
	checks := []struct {
		name string
		frag string
		run  func() (string, error)
	}{
		{"2b", "capture period", func() (string, error) { return render(s.Fig2b()) }},
		{"3", "naive", func() (string, error) { return render(s.Fig3()) }},
		{"8", "end-to-end", func() (string, error) { return render(s.Fig8()) }},
		{"9", "NoAdapt", func() (string, error) { return render(s.Fig9()) }},
		{"10", "prior work", func() (string, error) { return render(s.Fig10()) }},
		{"11", "thresholds", func() (string, error) { return render(s.Fig11()) }},
		{"11c", "sweep", func() (string, error) { return render(s.Fig11c()) }},
		{"12", "scheduling", func() (string, error) { return render(s.Fig12()) }},
		{"13", "MSP430", func() (string, error) { return render(s.Fig13()) }},
	}
	for _, c := range checks {
		out, err := c.run()
		if err != nil {
			t.Fatalf("fig %s: %v", c.name, err)
		}
		if !strings.Contains(out, c.frag) {
			t.Errorf("fig %s output missing %q:\n%s", c.name, c.frag, out)
		}
	}
}

func render(tb *report.Table, err error) (string, error) {
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if rerr := tb.Render(&buf); rerr != nil {
		return "", rerr
	}
	return buf.String(), nil
}

func TestFig14Tables(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	s := smallSetup()
	tables, err := s.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("Fig14 returned %d tables, want 3", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no rows", tb.Title)
		}
	}
}

func TestCircuitStudyTables(t *testing.T) {
	tables := CircuitStudy()
	if len(tables) != 2 {
		t.Fatalf("CircuitStudy returned %d tables, want 2", len(tables))
	}
	var buf bytes.Buffer
	for _, tb := range tables {
		if err := tb.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	for _, frag := range []string{"ratio error", "msp430", "apollo4", "quetzal module"} {
		if !strings.Contains(out, frag) {
			t.Errorf("circuit study missing %q", frag)
		}
	}
}

func TestTable1(t *testing.T) {
	tb := DefaultSetup().Table1()
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"apollo4", "mobilenetv2", "task-window=64"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("Table1 missing %q", frag)
		}
	}
	s := DefaultSetup()
	s.Profile = device.MSP430()
	tb = s.Table1()
	buf.Reset()
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "lenet-int16") {
		t.Error("MSP430 Table1 missing lenet-int16")
	}
}

func TestExtensionStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("extension studies are slow")
	}
	s := smallSetup()

	jt, err := s.JitterStudy()
	if err != nil {
		t.Fatalf("JitterStudy: %v", err)
	}
	if len(jt.Rows) != 6 {
		t.Errorf("JitterStudy rows = %d, want 6 (3 jitter levels × 2 systems)", len(jt.Rows))
	}

	ck, err := s.CheckpointStudy()
	if err != nil {
		t.Fatalf("CheckpointStudy: %v", err)
	}
	if len(ck.Rows) != 6 {
		t.Errorf("CheckpointStudy rows = %d, want 6 (3 policies × 2 systems)", len(ck.Rows))
	}

	mc, err := s.MCUStudy()
	if err != nil {
		t.Fatalf("MCUStudy: %v", err)
	}
	if len(mc.Rows) != 6 {
		t.Errorf("MCUStudy rows = %d, want 6 (3 platforms × 2 systems)", len(mc.Rows))
	}
	out, err := render(mc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"apollo4", "stm32g071", "msp430fr5994"} {
		if !strings.Contains(out, frag) {
			t.Errorf("MCUStudy missing %q", frag)
		}
	}
}

func TestRunWithTimeline(t *testing.T) {
	s := smallSetup()
	s.NumEvents = 20
	var buf bytes.Buffer
	timeline := func(c *sim.Config) { c.Timeline = &buf }
	res, err := s.RunWith(context.Background(), SysNoAdapt, Crowded, timeline)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsCompleted == 0 {
		t.Error("timeline run completed nothing")
	}
	if !strings.HasPrefix(buf.String(), "t_s,power_mw,store_mj,occupancy,state") {
		t.Errorf("timeline missing header: %q", buf.String()[:60])
	}
	// Ideal short-circuits without a timeline.
	if _, err := s.RunWith(context.Background(), SysIdeal, Crowded, timeline); err != nil {
		t.Errorf("RunWith(ideal, timeline): %v", err)
	}
}

func TestLadderStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb, err := smallSetup().LadderStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tb.Rows))
	}
	out, err := render(tb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "opt3") {
		t.Errorf("ladder table missing opt3 column:\n%s", out)
	}
}

func TestBufferStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := smallSetup()
	s.NumEvents = 40
	tb, err := s.BufferStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 (6 capacities × 2 systems)", len(tb.Rows))
	}
}

// The event-driven engine must preserve the harness's headline orderings.
func TestFastEngineOrderings(t *testing.T) {
	s := smallSetup()
	s.Engine = sim.EventDriven
	res, err := s.runAll([]string{SysNoAdapt, SysQuetzal}, Crowded)
	if err != nil {
		t.Fatal(err)
	}
	qz, na := res[SysQuetzal], res[SysNoAdapt]
	if qz.DiscardedFraction() >= na.DiscardedFraction() {
		t.Errorf("fast engine: quetzal %.3f not below noadapt %.3f",
			qz.DiscardedFraction(), na.DiscardedFraction())
	}
	if qz.IBOFraction()*2 > na.IBOFraction() {
		t.Errorf("fast engine: quetzal IBO %.3f not well below noadapt %.3f",
			qz.IBOFraction(), na.IBOFraction())
	}
}

func TestSeedStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := smallSetup()
	tb, err := s.SeedStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tb.Rows))
	}
}
