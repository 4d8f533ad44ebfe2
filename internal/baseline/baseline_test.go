package baseline

import (
	"math"
	"strings"
	"testing"

	"quetzal/internal/buffer"
	"quetzal/internal/core"
	"quetzal/internal/device"
	"quetzal/internal/model"
	"quetzal/internal/sched"
)

func app() *model.App { return device.Apollo4().PersonDetectionApp() }

func pushReport(b *buffer.Buffer, n int) {
	for i := 0; i < n; i++ {
		b.Push(buffer.Input{Seq: uint64(i), CapturedAt: float64(i), JobID: device.ReportJobID})
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, never{}, nil); err == nil {
		t.Error("New accepted nil app")
	}
	if _, err := New(app(), nil, nil); err == nil {
		t.Error("New accepted nil rule")
	}
	broken := app()
	broken.EntryJobID = 99
	if _, err := New(broken, never{}, nil); err == nil {
		t.Error("New accepted invalid app")
	}
}

func TestNoAdaptNeverDegrades(t *testing.T) {
	c, err := NoAdapt(app())
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "noadapt" {
		t.Errorf("Name = %q", c.Name())
	}
	b := buffer.New(10)
	pushReport(b, 10)
	dec, ok := c.NextJob(core.Env{InputPower: 0, BufferLen: 10, BufferCap: 10}, b)
	if !ok || dec.Degraded {
		t.Errorf("NoAdapt degraded under full buffer + no power: %+v", dec)
	}
	for _, o := range dec.Options {
		if o != 0 {
			t.Errorf("NoAdapt options = %v, want all 0", dec.Options)
		}
	}
}

func TestAlwaysDegrade(t *testing.T) {
	c, err := AlwaysDegrade(app())
	if err != nil {
		t.Fatal(err)
	}
	b := buffer.New(10)
	pushReport(b, 1)
	dec, _ := c.NextJob(core.Env{InputPower: 1, BufferLen: 1, BufferCap: 10}, b)
	if !dec.Degraded {
		t.Fatal("AlwaysDegrade did not degrade")
	}
	// report job: compress (1 option) stays 0, radio (2 options) → 1.
	if dec.Options[0] != 0 || dec.Options[1] != 1 {
		t.Errorf("options = %v, want [0 1]", dec.Options)
	}
}

func TestFCFSOrderingInBaselines(t *testing.T) {
	c, _ := NoAdapt(app())
	b := buffer.New(10)
	b.Push(buffer.Input{Seq: 7, CapturedAt: 9, JobID: device.DetectJobID})
	b.Push(buffer.Input{Seq: 8, CapturedAt: 1, JobID: device.ReportJobID})
	dec, _ := c.NextJob(core.Env{BufferLen: 2, BufferCap: 10}, b)
	if dec.BufferIndex != 0 || dec.JobID != device.DetectJobID {
		t.Errorf("decision = %+v, want front of queue", dec)
	}
}

func TestEmptyBuffer(t *testing.T) {
	c, _ := NoAdapt(app())
	if _, ok := c.NextJob(core.Env{BufferCap: 10}, buffer.New(10)); ok {
		t.Error("NextJob on empty buffer returned ok")
	}
}

func TestCatNapDegradesOnlyWhenFull(t *testing.T) {
	c, err := CatNap(app())
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "catnap" {
		t.Errorf("Name = %q", c.Name())
	}
	b := buffer.New(10)
	pushReport(b, 9)
	dec, _ := c.NextJob(core.Env{BufferLen: 9, BufferCap: 10}, b)
	if dec.Degraded {
		t.Error("CatNap degraded at 90% occupancy")
	}
	pushReport(b, 1)
	dec, _ = c.NextJob(core.Env{BufferLen: 10, BufferCap: 10}, b)
	if !dec.Degraded {
		t.Error("CatNap did not degrade at 100% occupancy")
	}
}

func TestFixedThreshold(t *testing.T) {
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		c, err := Threshold(app(), frac)
		if err != nil {
			t.Fatal(err)
		}
		atLen := int(math.Ceil(frac * 10))
		below := core.Env{BufferLen: atLen - 1, BufferCap: 10}
		at := core.Env{BufferLen: atLen, BufferCap: 10}
		if c.rule.Degrade(below) {
			t.Errorf("threshold %g degraded below threshold", frac)
		}
		if !c.rule.Degrade(at) {
			t.Errorf("threshold %g did not degrade at threshold", frac)
		}
	}
	if _, err := Threshold(app(), 0); err == nil {
		t.Error("Threshold accepted 0")
	}
	if _, err := Threshold(app(), 1.5); err == nil {
		t.Error("Threshold accepted 1.5")
	}
	if got := (FixedThreshold{Frac: 0.25}).Name(); !strings.Contains(got, "25%") {
		t.Errorf("Name = %q", got)
	}
	if (FixedThreshold{Frac: 0.5}).Degrade(core.Env{BufferCap: 0}) {
		t.Error("zero-capacity env degraded")
	}
}

func TestPZOAlmostAlwaysDegrades(t *testing.T) {
	// Datasheet max 150 mW → threshold 75 mW; a real solar trace peaking at
	// 30 mW never crosses it.
	c, err := PZO(app(), 0.150)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "pzo" {
		t.Errorf("Name = %q", c.Name())
	}
	for _, p := range []float64{0, 0.005, 0.030} {
		if !c.rule.Degrade(core.Env{InputPower: p}) {
			t.Errorf("PZO did not degrade at %g W (threshold 75 mW)", p)
		}
	}
	if _, err := PZO(app(), 0); err == nil {
		t.Error("PZO accepted non-positive max")
	}
}

func TestPZIUsesObservedMax(t *testing.T) {
	c, err := PZI(app(), 0.030) // threshold 15 mW
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "pzi" {
		t.Errorf("Name = %q", c.Name())
	}
	if !c.rule.Degrade(core.Env{InputPower: 0.010}) {
		t.Error("PZI did not degrade below threshold")
	}
	if c.rule.Degrade(core.Env{InputPower: 0.020}) {
		t.Error("PZI degraded above threshold")
	}
	if _, err := PZI(app(), -1); err == nil {
		t.Error("PZI accepted non-positive max")
	}
}

func TestCustomPolicyInjection(t *testing.T) {
	c, err := New(app(), never{}, sched.LCFS{})
	if err != nil {
		t.Fatal(err)
	}
	b := buffer.New(10)
	b.Push(buffer.Input{Seq: 0, JobID: device.DetectJobID})
	b.Push(buffer.Input{Seq: 1, JobID: device.DetectJobID})
	dec, _ := c.NextJob(core.Env{BufferLen: 2, BufferCap: 10}, b)
	if dec.BufferIndex != 1 {
		t.Errorf("LCFS baseline selected index %d, want 1", dec.BufferIndex)
	}
}

func TestControllerInterfaceNoops(t *testing.T) {
	c, _ := NoAdapt(app())
	c.ObserveCapture(true)           // must not panic
	c.OnJobComplete(core.Feedback{}) // must not panic
	if ops, uses := c.RatioOps(); ops != 0 || uses {
		t.Errorf("RatioOps = (%d,%v), want (0,false)", ops, uses)
	}
}

// Compile-time interface checks.
var _ core.Controller = (*Controller)(nil)
