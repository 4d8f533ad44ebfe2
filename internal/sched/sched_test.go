package sched

import (
	"testing"

	"quetzal/internal/buffer"
	"quetzal/internal/model"
)

// fakeEstimator returns canned Se2e per (jobID, taskIdx, optIdx) and
// probability 1 unless overridden.
type fakeEstimator struct {
	se2e map[[3]int]float64
	prob map[[2]int]float64
}

func (f *fakeEstimator) Se2e(jobID, taskIdx, optIdx int) float64 {
	if v, ok := f.se2e[[3]int{jobID, taskIdx, optIdx}]; ok {
		return v
	}
	return 1
}

func (f *fakeEstimator) Probability(jobID, taskIdx int) float64 {
	if v, ok := f.prob[[2]int{jobID, taskIdx}]; ok {
		return v
	}
	return 1
}

func twoJobApp() *model.App {
	opt := func(name string, texe float64) model.Option {
		return model.Option{Name: name, Texe: texe, Pexe: 0.01}
	}
	ml := &model.Task{Name: "ml", Kind: model.Classify,
		Options: []model.Option{opt("hq", 2), opt("lq", 0.2)}}
	radio := &model.Task{Name: "radio", Kind: model.Transmit,
		Options: []model.Option{opt("full", 0.8), opt("byte", 0.05)}}
	return &model.App{
		Name: "t",
		Jobs: []*model.Job{
			{ID: 0, Name: "detect", Tasks: []*model.Task{ml}, SpawnJobID: 1},
			{ID: 1, Name: "report", Tasks: []*model.Task{radio}, SpawnJobID: model.NoSpawn},
		},
		EntryJobID: 0, CaptureTexe: 0.01, CapturePexe: 0.01,
	}
}

func push(b *buffer.Buffer, seq uint64, captured float64, job int) {
	b.Push(buffer.Input{Seq: seq, CapturedAt: captured, JobID: job})
}

func TestExpectedServiceWeightsByProbability(t *testing.T) {
	app := twoJobApp()
	est := &fakeEstimator{
		se2e: map[[3]int]float64{{0, 0, 0}: 4},
		prob: map[[2]int]float64{{0, 0}: 0.5},
	}
	if got := ExpectedService(app.JobByID(0), est, nil); got != 2 {
		t.Errorf("ExpectedService = %g, want 2 (0.5 × 4)", got)
	}
}

func TestExpectedServiceQualitySelector(t *testing.T) {
	app := twoJobApp()
	est := &fakeEstimator{se2e: map[[3]int]float64{
		{0, 0, 0}: 10,
		{0, 0, 1}: 1,
	}}
	got := ExpectedService(app.JobByID(0), est, func(int) int { return 1 })
	if got != 1 {
		t.Errorf("degraded ExpectedService = %g, want 1", got)
	}
}

func TestEnergySJFPicksShortestJob(t *testing.T) {
	app := twoJobApp()
	b := buffer.New(10)
	push(b, 0, 0, 0) // detect input, older
	push(b, 1, 5, 1) // report input, newer
	est := &fakeEstimator{se2e: map[[3]int]float64{
		{0, 0, 0}: 10, // detect is slow
		{1, 0, 0}: 2,  // report is fast
	}}
	d := EnergySJF{}.Select(app, b, est)
	if d.JobID != 1 {
		t.Fatalf("selected job %d, want 1 (shorter)", d.JobID)
	}
	in, _ := b.At(d.BufferIndex)
	if in.Seq != 1 {
		t.Errorf("selected seq %d, want 1", in.Seq)
	}
	if d.ExpectedS != 2 {
		t.Errorf("ExpectedS = %g, want 2", d.ExpectedS)
	}
}

func TestEnergySJFFlipsWithPower(t *testing.T) {
	// The paper's motivating case: at low input power ML is faster
	// end-to-end than the radio; at high power the radio is faster.
	app := twoJobApp()
	b := buffer.New(10)
	push(b, 0, 0, 0)
	push(b, 1, 1, 1)

	lowPower := &fakeEstimator{se2e: map[[3]int]float64{
		{0, 0, 0}: 6,  // ML: 24 mJ / 4 mW
		{1, 0, 0}: 20, // radio: 80 mJ / 4 mW
	}}
	if d := (EnergySJF{}).Select(app, b, lowPower); d.JobID != 0 {
		t.Errorf("low power: selected job %d, want 0 (ML)", d.JobID)
	}

	highPower := &fakeEstimator{se2e: map[[3]int]float64{
		{0, 0, 0}: 2.0, // ML compute-bound
		{1, 0, 0}: 0.8, // radio compute-bound
	}}
	if d := (EnergySJF{}).Select(app, b, highPower); d.JobID != 1 {
		t.Errorf("high power: selected job %d, want 1 (radio)", d.JobID)
	}
}

func TestEnergySJFTieBreaksByAge(t *testing.T) {
	app := twoJobApp()
	b := buffer.New(10)
	push(b, 0, 50, 0)       // newer capture awaiting detect
	push(b, 1, 10, 1)       // older capture awaiting report
	est := &fakeEstimator{} // all Se2e = 1: tie
	d := EnergySJF{}.Select(app, b, est)
	if d.JobID != 1 {
		t.Errorf("tie broken to job %d, want 1 (older input)", d.JobID)
	}
}

func TestEnergySJFPicksOldestInputWithinJob(t *testing.T) {
	app := twoJobApp()
	b := buffer.New(10)
	push(b, 5, 30, 0)
	push(b, 6, 10, 0)
	d := EnergySJF{}.Select(app, b, &fakeEstimator{})
	in, _ := b.At(d.BufferIndex)
	if in.Seq != 6 {
		t.Errorf("selected seq %d, want 6 (older capture)", in.Seq)
	}
}

func TestEnergySJFEmptyBuffer(t *testing.T) {
	app := twoJobApp()
	d := EnergySJF{}.Select(app, buffer.New(4), &fakeEstimator{})
	if d.BufferIndex != -1 {
		t.Errorf("empty buffer decision = %+v, want BufferIndex -1", d)
	}
}

func TestEnergySJFSkipsUnknownJobTags(t *testing.T) {
	app := twoJobApp()
	b := buffer.New(10)
	push(b, 0, 0, 99) // stale tag, no such job
	push(b, 1, 1, 0)
	d := EnergySJF{}.Select(app, b, &fakeEstimator{})
	if d.JobID != 0 {
		t.Errorf("selected job %d, want 0 (unknown tags skipped)", d.JobID)
	}
}

func TestFCFS(t *testing.T) {
	app := twoJobApp()
	b := buffer.New(10)
	push(b, 0, 5, 1)
	push(b, 1, 2, 0)
	d := FCFS{}.Select(app, b, &fakeEstimator{})
	if d.BufferIndex != 0 || d.JobID != 1 {
		t.Errorf("FCFS = %+v, want front of queue (job 1)", d)
	}
	if e := (FCFS{}).Select(app, buffer.New(2), nil); e.BufferIndex != -1 {
		t.Errorf("FCFS on empty = %+v", e)
	}
}

func TestLCFS(t *testing.T) {
	app := twoJobApp()
	b := buffer.New(10)
	push(b, 0, 5, 1)
	push(b, 1, 2, 0)
	d := LCFS{}.Select(app, b, &fakeEstimator{})
	if d.BufferIndex != 1 || d.JobID != 0 {
		t.Errorf("LCFS = %+v, want back of queue (job 0)", d)
	}
	if e := (LCFS{}).Select(app, buffer.New(2), nil); e.BufferIndex != -1 {
		t.Errorf("LCFS on empty = %+v", e)
	}
}

func TestCaptureOrder(t *testing.T) {
	app := twoJobApp()
	b := buffer.New(10)
	push(b, 0, 50, 0)
	push(b, 1, 10, 1) // oldest capture, enqueued second
	push(b, 2, 30, 0)
	d := CaptureOrder{}.Select(app, b, &fakeEstimator{})
	in, _ := b.At(d.BufferIndex)
	if in.Seq != 1 {
		t.Errorf("CaptureOrder selected seq %d, want 1", in.Seq)
	}
	if e := (CaptureOrder{}).Select(app, buffer.New(2), nil); e.BufferIndex != -1 {
		t.Errorf("CaptureOrder on empty = %+v", e)
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[Policy]string{
		EnergySJF{}:    "energy-sjf",
		FCFS{}:         "fcfs",
		LCFS{}:         "lcfs",
		CaptureOrder{}: "capture-order",
	}
	for p, want := range cases {
		if got := p.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}
