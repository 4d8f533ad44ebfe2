package core

import (
	"strings"
	"testing"

	"quetzal/internal/buffer"
	"quetzal/internal/device"
	"quetzal/internal/model"
	"quetzal/internal/sched"
)

func newRuntime(t *testing.T, mutate func(*Config)) *Runtime {
	t.Helper()
	cfg := Config{
		App:           device.Apollo4().PersonDetectionApp(),
		CapturePeriod: 1.0,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted nil app")
	}
	if _, err := New(Config{App: device.Apollo4().PersonDetectionApp()}); err == nil {
		t.Error("New accepted zero capture period")
	}
	bad := device.Apollo4().PersonDetectionApp()
	bad.EntryJobID = 99
	if _, err := New(Config{App: bad, CapturePeriod: 1}); err == nil {
		t.Error("New accepted invalid app")
	}
}

func TestName(t *testing.T) {
	if got := newRuntime(t, nil).Name(); got != "quetzal" {
		t.Errorf("Name = %q, want quetzal", got)
	}
	r := newRuntime(t, func(c *Config) { c.Policy = sched.FCFS{} })
	if got := r.Name(); !strings.Contains(got, "fcfs") {
		t.Errorf("Name = %q, want policy mentioned", got)
	}
	r = newRuntime(t, func(c *Config) { c.DisableIBOEngine = true })
	if got := r.Name(); !strings.Contains(got, "no-ibo") {
		t.Errorf("Name = %q, want no-ibo", got)
	}
	if got := (AveragedSe2e).String(); got != "avg-se2e" {
		t.Errorf("EstimatorKind.String = %q", got)
	}
	if got := EstimatorKind(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown kind String = %q", got)
	}
}

func TestNextJobEmptyBuffer(t *testing.T) {
	r := newRuntime(t, nil)
	_, ok := r.NextJob(Env{InputPower: 0.01, BufferCap: 10}, buffer.New(10))
	if ok {
		t.Error("NextJob on empty buffer reported ok")
	}
}

func TestNextJobSelectsAndAssignsOptions(t *testing.T) {
	r := newRuntime(t, nil)
	buf := buffer.New(10)
	buf.Push(buffer.Input{Seq: 0, CapturedAt: 0, JobID: device.DetectJobID})
	dec, ok := r.NextJob(Env{Now: 1, InputPower: 0.02, BufferLen: 1, BufferCap: 10}, buf)
	if !ok {
		t.Fatal("NextJob returned !ok with a buffered input")
	}
	if dec.JobID != device.DetectJobID {
		t.Errorf("JobID = %d, want detect", dec.JobID)
	}
	if len(dec.Options) != 1 {
		t.Fatalf("Options len = %d, want 1", len(dec.Options))
	}
	// Plenty of free space at high power: no IBO, option 0.
	if dec.IBOPredicted || dec.Degraded || dec.Options[0] != 0 {
		t.Errorf("decision = %+v, want undegraded", dec)
	}
	if dec.PredictedS <= 0 {
		t.Errorf("PredictedS = %g, want positive", dec.PredictedS)
	}
}

func TestNextJobDegradesUnderPressure(t *testing.T) {
	r := newRuntime(t, nil)
	buf := buffer.New(10)
	for i := 0; i < 9; i++ {
		buf.Push(buffer.Input{Seq: uint64(i), CapturedAt: float64(i), JobID: device.DetectJobID})
	}
	// Teach the arrival tracker that every capture is stored (λ = 1/s).
	for i := 0; i < 64; i++ {
		r.ObserveCapture(true)
	}
	// Very low power: MobileNetV2 S_e2e = 24 mJ / 1 mW ≈ 24 s ⇒ λ·E[S] ≈ 24
	// against 1 free slot ⇒ IBO; LeNet at 1.8 mJ ≈ 1.8 s still ≥ 1 ⇒ even
	// the degraded option cannot avert, so Quetzal uses the cheapest.
	dec, ok := r.NextJob(Env{Now: 100, InputPower: 0.001, BufferLen: 9, BufferCap: 10}, buf)
	if !ok {
		t.Fatal("NextJob returned !ok")
	}
	if !dec.IBOPredicted {
		t.Error("IBO not predicted at λ=1, E[S]≈24 s, 1 free slot")
	}
	if !dec.Degraded || dec.Options[0] != 1 {
		t.Errorf("decision = %+v, want degraded to option 1", dec)
	}
}

func TestNextJobAvertsWithHeadroom(t *testing.T) {
	r := newRuntime(t, nil)
	buf := buffer.New(10)
	buf.Push(buffer.Input{Seq: 0, JobID: device.DetectJobID})
	for i := 0; i < 64; i++ {
		r.ObserveCapture(i%4 == 0) // λ = 0.25/s
	}
	// At 1 mW: MNv2 ≈ 24 s ⇒ λ·E[S] = 6 ≥ 5 free ⇒ IBO predicted;
	// LeNet ≈ 1.8 s ⇒ 0.45 < 5 ⇒ averted at option 1.
	dec, _ := r.NextJob(Env{Now: 10, InputPower: 0.001, BufferLen: 5, BufferCap: 10}, buf)
	if !dec.IBOPredicted || !dec.IBOAverted {
		t.Errorf("decision = %+v, want predicted+averted", dec)
	}
	if dec.Options[0] != 1 {
		t.Errorf("option = %d, want 1", dec.Options[0])
	}
}

func TestDisableIBOEngine(t *testing.T) {
	r := newRuntime(t, func(c *Config) { c.DisableIBOEngine = true })
	buf := buffer.New(10)
	buf.Push(buffer.Input{Seq: 0, JobID: device.DetectJobID})
	for i := 0; i < 64; i++ {
		r.ObserveCapture(true)
	}
	dec, _ := r.NextJob(Env{InputPower: 0.0005, BufferLen: 9, BufferCap: 10}, buf)
	if dec.IBOPredicted || dec.Degraded {
		t.Errorf("decision = %+v, want no IBO logic with engine disabled", dec)
	}
}

func TestEnergyAwareSJFOrdersByPower(t *testing.T) {
	// The paper's §1 example: with low input power, ML inference uses less
	// energy and is thus faster end-to-end than sending a radio packet;
	// with high input power, compute time dominates and the packet is
	// faster. Build that exact cost shape: ML 2 s / 24 mJ vs radio
	// 0.8 s / 80 mJ.
	ml := &model.Task{Name: "ml", Kind: model.Classify, Options: []model.Option{
		{Name: "mnv2", Texe: 2.0, Pexe: 0.012, FalseNegative: 0.06, FalsePositive: 0.05},
	}}
	radio := &model.Task{Name: "radio", Kind: model.Transmit, Options: []model.Option{
		{Name: "full", Texe: 0.8, Pexe: 0.100, HighQuality: true},
	}}
	app := &model.App{
		Name: "flip",
		Jobs: []*model.Job{
			{ID: 0, Name: "detect", Tasks: []*model.Task{ml}, SpawnJobID: 1},
			{ID: 1, Name: "report", Tasks: []*model.Task{radio}, SpawnJobID: model.NoSpawn},
		},
		EntryJobID: 0, CaptureTexe: 0.06, CapturePexe: 0.01,
	}
	r := newRuntime(t, func(c *Config) { c.App = app })
	buf := buffer.New(10)
	buf.Push(buffer.Input{Seq: 0, CapturedAt: 0, JobID: 0})
	buf.Push(buffer.Input{Seq: 1, CapturedAt: 1, JobID: 1})

	dec, _ := r.NextJob(Env{InputPower: 0.5, BufferLen: 2, BufferCap: 10}, buf)
	if dec.JobID != 1 {
		t.Errorf("high power: selected %d, want report (0.8 s < 2 s compute)", dec.JobID)
	}
	dec, _ = r.NextJob(Env{InputPower: 0.001, BufferLen: 2, BufferCap: 10}, buf)
	if dec.JobID != 0 {
		t.Errorf("low power: selected %d, want detect (24 mJ < 80 mJ)", dec.JobID)
	}
}

func TestLambdaTracking(t *testing.T) {
	r := newRuntime(t, nil)
	if got := r.Lambda(); got != 0.5 {
		t.Errorf("prior λ = %g, want 0.5", got)
	}
	for i := 0; i < 256; i++ {
		r.ObserveCapture(i%2 == 0)
	}
	if got := r.Lambda(); got != 0.5 {
		t.Errorf("λ = %g, want 0.5", got)
	}
	for i := 0; i < 256; i++ {
		r.ObserveCapture(true)
	}
	if got := r.Lambda(); got != 1.0 {
		t.Errorf("λ = %g, want 1.0", got)
	}
}

func TestProbabilityFeedback(t *testing.T) {
	r := newRuntime(t, func(c *Config) { c.App = device.Apollo4().FusedPipelineApp() })
	buf := buffer.New(10)
	buf.Push(buffer.Input{Seq: 0, JobID: device.DetectJobID})

	// Before feedback, conditional tasks assume probability 1.
	dec, _ := r.NextJob(Env{InputPower: 0.5, BufferLen: 1, BufferCap: 10}, buf)
	before := dec.PredictedS

	// Report 64 completions where the conditional tasks never ran.
	for i := 0; i < 64; i++ {
		r.OnJobComplete(Feedback{
			JobID:    device.DetectJobID,
			Executed: []bool{true, false, false},
			Now:      float64(i),
		})
	}
	dec, _ = r.NextJob(Env{InputPower: 0.5, BufferLen: 1, BufferCap: 10}, buf)
	if dec.PredictedS >= before {
		t.Errorf("E[S] %g not reduced from %g after conditional tasks stopped running",
			dec.PredictedS, before)
	}
}

func TestPIDCorrectionFeedback(t *testing.T) {
	r := newRuntime(t, nil)
	if got := r.Correction(); got != 0 {
		t.Errorf("initial correction = %g, want 0", got)
	}
	// Jobs consistently run 10 s longer than predicted.
	for i := 1; i <= 50; i++ {
		r.OnJobComplete(Feedback{
			JobID: device.DetectJobID, Executed: []bool{true},
			PredictedS: 1, ObservedS: 11, Now: float64(i),
		})
	}
	if got := r.Correction(); got <= 0 {
		t.Errorf("correction = %g after persistent underprediction, want > 0", got)
	}

	off := newRuntime(t, func(c *Config) { c.DisablePID = true })
	for i := 1; i <= 50; i++ {
		off.OnJobComplete(Feedback{JobID: device.DetectJobID, Executed: []bool{true},
			PredictedS: 1, ObservedS: 11, Now: float64(i)})
	}
	if got := off.Correction(); got != 0 {
		t.Errorf("DisablePID correction = %g, want 0", got)
	}
}

func TestOnJobCompleteUnknownJobIsNoop(t *testing.T) {
	r := newRuntime(t, nil)
	r.OnJobComplete(Feedback{JobID: 99, Executed: []bool{true}}) // must not panic
}

func TestRatioOps(t *testing.T) {
	r := newRuntime(t, nil)
	ops, usesModule := r.RatioOps()
	// person-detection: 3 tasks + 2 options on the widest degradable task.
	if ops != 5 || !usesModule {
		t.Errorf("RatioOps = (%d, %v), want (5, true)", ops, usesModule)
	}
	ex := newRuntime(t, func(c *Config) { c.Kind = ExactDivision })
	if _, uses := ex.RatioOps(); uses {
		t.Error("ExactDivision runtime claims to use the module")
	}
}

func TestEstimatorKindsProduceDifferentEstimates(t *testing.T) {
	buf := buffer.New(10)
	buf.Push(buffer.Input{Seq: 0, JobID: device.DetectJobID})
	env := Env{InputPower: 0.003, BufferLen: 1, BufferCap: 10}

	hw := newRuntime(t, nil)
	exact := newRuntime(t, func(c *Config) { c.Kind = ExactDivision })
	avg := newRuntime(t, func(c *Config) { c.Kind = AveragedSe2e })

	dh, _ := hw.NextJob(env, buf)
	de, _ := exact.NextJob(env, buf)
	da, _ := avg.NextJob(env, buf)

	// HW module approximates the exact division within the quantisation
	// error band (≈ ±14 %).
	if dh.PredictedS < de.PredictedS*0.8 || dh.PredictedS > de.PredictedS*1.25 {
		t.Errorf("hw E[S] %g vs exact %g: outside the quantisation band", dh.PredictedS, de.PredictedS)
	}
	// The averaged estimator has no observations, so it predicts pure
	// compute time (2 s) — blind to the 8 s of recharging the exact
	// estimator sees at 3 mW.
	if da.PredictedS >= de.PredictedS/2 {
		t.Errorf("avg E[S] %g not blind to power (exact %g)", da.PredictedS, de.PredictedS)
	}
}

func TestAveragedEstimatorLearnsFromObservations(t *testing.T) {
	// IBO engine disabled so PredictedS is the raw SJF estimate rather
	// than a post-degradation value.
	r := newRuntime(t, func(c *Config) { c.Kind = AveragedSe2e; c.DisableIBOEngine = true })
	buf := buffer.New(10)
	buf.Push(buffer.Input{Seq: 0, JobID: device.DetectJobID})
	env := Env{InputPower: 0.003, BufferLen: 1, BufferCap: 10}

	before, _ := r.NextJob(env, buf)
	for i := 1; i <= 30; i++ {
		r.OnJobComplete(Feedback{JobID: device.DetectJobID, Executed: []bool{true},
			PredictedS: before.PredictedS, ObservedS: 20, Now: float64(i)})
	}
	after, _ := r.NextJob(env, buf)
	if after.PredictedS <= before.PredictedS*2 {
		t.Errorf("avg estimator E[S] = %g, want it to have learned ≈20 s (was %g)",
			after.PredictedS, before.PredictedS)
	}
}

func TestSetTemperatureDoesNotBreakEstimates(t *testing.T) {
	r := newRuntime(t, nil)
	buf := buffer.New(10)
	buf.Push(buffer.Input{Seq: 0, JobID: device.DetectJobID})
	env := Env{InputPower: 0.002, BufferLen: 1, BufferCap: 10}
	r.SetTemperature(50)
	d, _ := r.NextJob(env, buf)
	if d.PredictedS <= 0 {
		t.Errorf("E[S] at 50°C = %g, want positive", d.PredictedS)
	}
}

func TestSpawnProbabilityConverges(t *testing.T) {
	r := newRuntime(t, nil)
	// Prior: every completion spawns.
	if got := r.SpawnProbability(device.DetectJobID); got != 1 {
		t.Errorf("prior spawn probability = %g, want 1", got)
	}
	// Unknown job: conservative 1.
	if got := r.SpawnProbability(42); got != 1 {
		t.Errorf("unknown-job spawn probability = %g, want 1", got)
	}
	// Observe 64 completions, a quarter of which spawned.
	for i := 0; i < 64; i++ {
		r.OnJobComplete(Feedback{
			JobID:    device.DetectJobID,
			Executed: []bool{true},
			Spawned:  i%4 == 0,
			Now:      float64(i),
		})
	}
	if got := r.SpawnProbability(device.DetectJobID); got != 0.25 {
		t.Errorf("spawn probability = %g, want 0.25", got)
	}
	// The report job spawns nothing; its probability stays at the default.
	if got := r.SpawnProbability(device.ReportJobID); got != 1 {
		t.Errorf("non-spawning job probability = %g, want 1 (no tracker)", got)
	}
}

func TestAveragedEstimatorScalesOptionsByTexe(t *testing.T) {
	r := newRuntime(t, func(c *Config) { c.Kind = AveragedSe2e; c.DisableIBOEngine = true })
	// Teach the detect task an observed 10 s service at option 0
	// (MobileNetV2, Texe 0.85 s).
	for i := 1; i <= 30; i++ {
		r.OnJobComplete(Feedback{JobID: device.DetectJobID, Executed: []bool{true},
			PredictedS: 1, ObservedS: 10, Now: float64(i)})
	}
	est := r.estimator()
	hq := est.Se2e(device.DetectJobID, 0, 0)
	lq := est.Se2e(device.DetectJobID, 0, 1)
	// LeNet (Texe 0.35) scales from the learned value by the Texe ratio.
	wantRatio := 0.35 / 0.85
	if got := lq / hq; got < wantRatio*0.99 || got > wantRatio*1.01 {
		t.Errorf("avg option scaling = %g, want ≈ %g", got, wantRatio)
	}
}

// TestNextJobZeroAlloc guards the decision path's allocation budget: with a
// warm buffer holding inputs for both jobs, NextJob on the hardware-module
// path allocates nothing, whether the IBO engine stays quiet (high power,
// occupancy under the utilization gate) or resolves a degrading chain-wide
// plan (low power, half-full buffer).
func TestNextJobZeroAlloc(t *testing.T) {
	r := newRuntime(t, nil)
	buf := buffer.New(10)
	for i := 0; i < 5; i++ {
		job := device.DetectJobID
		if i%2 == 1 {
			job = device.ReportJobID
		}
		buf.Push(buffer.Input{Seq: uint64(i), CapturedAt: float64(i), JobID: job})
	}
	for i := 0; i < 64; i++ {
		r.ObserveCapture(true) // λ = 1/s
	}
	for _, tc := range []struct {
		name      string
		power     float64
		bufferLen int
		predicts  bool
	}{
		{"quiet", 0.05, 1, false},
		{"degrading", 0.001, buf.Len(), true},
	} {
		env := Env{Now: 10, InputPower: tc.power, BufferLen: tc.bufferLen, BufferCap: buf.Capacity()}
		dec, ok := r.NextJob(env, buf)
		if !ok || dec.IBOPredicted != tc.predicts {
			t.Fatalf("%s: decision %+v (ok %v), want IBOPredicted %v", tc.name, dec, ok, tc.predicts)
		}
		allocs := testing.AllocsPerRun(1000, func() { r.NextJob(env, buf) })
		if allocs != 0 {
			t.Errorf("%s: NextJob allocates %.2f per call, want 0", tc.name, allocs)
		}
	}
}
