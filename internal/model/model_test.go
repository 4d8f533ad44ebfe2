package model

import (
	"strings"
	"testing"
)

func validTask(name string, kind TaskKind, opts int) *Task {
	t := &Task{Name: name, Kind: kind}
	for i := 0; i < opts; i++ {
		t.Options = append(t.Options, Option{
			Name: name + "-opt", Texe: 1 + float64(i), Pexe: 0.01,
		})
	}
	return t
}

func TestOptionEexe(t *testing.T) {
	o := Option{Name: "x", Texe: 2, Pexe: 0.05}
	if got := o.Eexe(); got != 0.1 {
		t.Errorf("Eexe = %g, want 0.1", got)
	}
}

func TestOptionValidate(t *testing.T) {
	bad := []Option{
		{Name: "", Texe: 1, Pexe: 1},
		{Name: "a", Texe: 0, Pexe: 1},
		{Name: "a", Texe: 1, Pexe: 0},
		{Name: "a", Texe: 1, Pexe: 1, FalseNegative: -0.1},
		{Name: "a", Texe: 1, Pexe: 1, FalsePositive: 1.1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, o)
		}
	}
	good := Option{Name: "a", Texe: 1, Pexe: 1, FalseNegative: 0.05, FalsePositive: 0.1}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected valid option: %v", err)
	}
}

func TestTaskKindString(t *testing.T) {
	cases := map[TaskKind]string{Compute: "compute", Classify: "classify", Transmit: "transmit", TaskKind(9): "TaskKind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestTaskDegradable(t *testing.T) {
	if validTask("a", Compute, 1).Degradable() {
		t.Error("single-option task reported degradable")
	}
	if !validTask("a", Compute, 2).Degradable() {
		t.Error("two-option task not degradable")
	}
}

func TestTaskValidate(t *testing.T) {
	if err := (&Task{Name: "", Options: []Option{{Name: "o", Texe: 1, Pexe: 1}}}).Validate(); err == nil {
		t.Error("accepted empty task name")
	}
	if err := (&Task{Name: "t"}).Validate(); err == nil {
		t.Error("accepted task with no options")
	}
	if err := validTask("t", Compute, MaxOptions+1).Validate(); err == nil {
		t.Error("accepted task exceeding MaxOptions")
	}
	if err := validTask("t", Compute, MaxOptions).Validate(); err != nil {
		t.Errorf("rejected task at MaxOptions: %v", err)
	}
	bad := validTask("t", Compute, 1)
	bad.Options[0].Texe = -1
	if err := bad.Validate(); err == nil {
		t.Error("accepted task with invalid option")
	}
}

func TestJobDegradableTask(t *testing.T) {
	j := &Job{ID: 0, Name: "j", Tasks: []*Task{
		validTask("a", Compute, 1),
		validTask("b", Transmit, 2),
	}, SpawnJobID: NoSpawn}
	if got := j.DegradableTask(); got != 1 {
		t.Errorf("DegradableTask = %d, want 1", got)
	}
	j2 := &Job{ID: 1, Name: "j2", Tasks: []*Task{validTask("a", Compute, 1)}, SpawnJobID: NoSpawn}
	if got := j2.DegradableTask(); got != -1 {
		t.Errorf("DegradableTask = %d, want -1", got)
	}
}

func TestJobValidate(t *testing.T) {
	tests := []struct {
		name string
		job  *Job
		want string // substring of error, "" = valid
	}{
		{"valid", &Job{ID: 0, Name: "j", Tasks: []*Task{validTask("a", Classify, 2)}}, ""},
		{"empty name", &Job{ID: 0, Tasks: []*Task{validTask("a", Compute, 1)}}, "empty name"},
		{"no tasks", &Job{ID: 0, Name: "j"}, "no tasks"},
		{"nil task", &Job{ID: 0, Name: "j", Tasks: []*Task{nil}}, "is nil"},
		{"two degradable", &Job{ID: 0, Name: "j", Tasks: []*Task{
			validTask("a", Classify, 2), validTask("b", Transmit, 2)}}, "degradable"},
		{"leading conditional", &Job{ID: 0, Name: "j", Tasks: []*Task{
			{Name: "a", Conditional: true, Options: []Option{{Name: "o", Texe: 1, Pexe: 1}}}}}, "conditional"},
	}
	for _, tc := range tests {
		err := tc.job.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func testApp() *App {
	detect := &Job{ID: 0, Name: "detect", Tasks: []*Task{validTask("ml", Classify, 2)}, SpawnJobID: 1}
	report := &Job{ID: 1, Name: "report", Tasks: []*Task{
		validTask("compress", Compute, 1), validTask("radio", Transmit, 2)}, SpawnJobID: NoSpawn}
	return &App{Name: "test", Jobs: []*Job{detect, report}, EntryJobID: 0, CaptureTexe: 0.01, CapturePexe: 0.005}
}

func TestAppValidate(t *testing.T) {
	app := testApp()
	if err := app.Validate(); err != nil {
		t.Fatalf("valid app rejected: %v", err)
	}

	dup := testApp()
	dup.Jobs[1].ID = 0
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate ids: %v", err)
	}

	badSpawn := testApp()
	badSpawn.Jobs[0].SpawnJobID = 42
	if err := badSpawn.Validate(); err == nil || !strings.Contains(err.Error(), "spawns unknown") {
		t.Errorf("bad spawn: %v", err)
	}

	badEntry := testApp()
	badEntry.EntryJobID = 9
	if err := badEntry.Validate(); err == nil || !strings.Contains(err.Error(), "entry job") {
		t.Errorf("bad entry: %v", err)
	}

	negCapture := testApp()
	negCapture.CaptureTexe = -1
	if err := negCapture.Validate(); err == nil {
		t.Error("accepted negative capture cost")
	}

	if err := (&App{Name: "empty"}).Validate(); err == nil {
		t.Error("accepted app with no jobs")
	}
}

func TestAppTaskBudget(t *testing.T) {
	app := &App{Name: "big", EntryJobID: 0}
	// Exactly 32 single-option tasks is at the §5.1 limit; 33 exceeds it.
	for j := 0; j < 8; j++ {
		job := &Job{ID: j, Name: "job", SpawnJobID: NoSpawn}
		for k := 0; k < 4; k++ {
			job.Tasks = append(job.Tasks, validTask("t", Compute, 1))
		}
		app.Jobs = append(app.Jobs, job)
	}
	if err := app.Validate(); err != nil {
		t.Fatalf("32 tasks must validate, got %v", err)
	}
	app.Jobs[0].Tasks = append(app.Jobs[0].Tasks, validTask("x", Compute, 1))
	if err := app.Validate(); err == nil || !strings.Contains(err.Error(), "at most 32") {
		t.Errorf("task budget: %v", err)
	}
}

func TestJobByID(t *testing.T) {
	app := testApp()
	if got := app.JobByID(1); got == nil || got.Name != "report" {
		t.Errorf("JobByID(1) = %v", got)
	}
	if got := app.JobByID(77); got != nil {
		t.Errorf("JobByID(77) = %v, want nil", got)
	}
}
