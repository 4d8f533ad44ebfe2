// Package model defines Quetzal's programming model (paper §5.2):
// applications are written as tasks grouped into jobs.
//
// A task is an application-specific computation that processes an input or
// manipulates a peripheral (ML inference, compression, radio transmission).
// Degradable tasks offer a quality-ordered list of options with different
// time/energy costs (e.g. MobileNetV2 vs LeNet; full-image vs single-byte
// packets). A job is a sequence of tasks, at most one of which is degradable
// — that task is responsible for preventing IBOs for the whole job. A job
// can spawn another job by re-inserting its input into the input buffer.
package model

import (
	"errors"
	"fmt"
)

// TaskKind describes how the simulator interprets a task's completion.
type TaskKind int

const (
	// Compute tasks always run to completion with no output decision
	// (e.g. image compression).
	Compute TaskKind = iota
	// Classify tasks decide whether the input is application-interesting.
	// The decision is drawn from the option's error rates against the
	// input's ground truth. A negative result ends the job early and, if
	// the job would spawn, suppresses the spawn.
	Classify
	// Transmit tasks emit a radio packet whose quality is the option's
	// HighQuality flag.
	Transmit
)

// String names the kind for diagnostics.
func (k TaskKind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Classify:
		return "classify"
	case Transmit:
		return "transmit"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
}

// Option is one quality level of a task. Options are profiled once (paper
// §4.1: consistent t_exe and P_exe per task) and quality-ordered best-first.
type Option struct {
	Name string
	// Texe is the execution latency in seconds; Pexe the draw in watts.
	Texe, Pexe float64
	// FalseNegative / FalsePositive are classifier error rates, used only
	// by Classify tasks: an interesting input is discarded with probability
	// FalseNegative; an uninteresting one passes with FalsePositive.
	FalseNegative, FalsePositive float64
	// HighQuality marks Transmit options whose packets the receiver can
	// audit (full images). Low-quality options (single byte) still report
	// the event but carry no evidence.
	HighQuality bool
	// TexeJitter is the fractional standard deviation of the execution
	// latency. The paper assumes "consistent t_exe and P_exe for each
	// task" and names variable execution costs as future work (§5.2, §8);
	// a non-zero jitter enables that extension: the simulator samples each
	// execution's latency from N(Texe, (TexeJitter·Texe)²), clamped to
	// [0.1·Texe, 3·Texe], and the PID controller absorbs the resulting
	// prediction error.
	TexeJitter float64
}

// Eexe returns the option's energy cost in joules.
func (o Option) Eexe() float64 { return o.Texe * o.Pexe }

// Validate checks an option's physical plausibility.
func (o Option) Validate() error {
	if o.Name == "" {
		return errors.New("model: option has empty name")
	}
	if o.Texe <= 0 || o.Pexe <= 0 {
		return fmt.Errorf("model: option %q needs positive Texe/Pexe, got %g/%g", o.Name, o.Texe, o.Pexe)
	}
	if o.FalseNegative < 0 || o.FalseNegative > 1 || o.FalsePositive < 0 || o.FalsePositive > 1 {
		return fmt.Errorf("model: option %q error rates must be in [0,1]", o.Name)
	}
	if o.TexeJitter < 0 || o.TexeJitter > 1 {
		return fmt.Errorf("model: option %q jitter must be in [0,1], got %g", o.Name, o.TexeJitter)
	}
	return nil
}

// Task is a named computation with one or more quality-ordered options.
// Options[0] is the highest quality; later entries are degradations.
type Task struct {
	Name    string
	Kind    TaskKind
	Options []Option
	// Conditional tasks execute only when the preceding Classify task in
	// the same job returned positive (Figure 5: "Job1:Task2 will only
	// process inputs that are positively classified by Job1:Task1").
	Conditional bool
	// Atomic tasks must complete within a single charge of the energy
	// store: a power failure mid-execution discards partial progress (no
	// JIT checkpoint can resume half a radio packet). The simulator waits
	// for the store to bank enough energy before starting an atomic task
	// and restarts it from scratch after a brown-out (§8: Quetzal operates
	// "on tasks that atomically complete within a single charge").
	Atomic bool
}

// Degradable reports whether the task offers more than one quality level.
func (t *Task) Degradable() bool { return len(t.Options) > 1 }

// Validate checks the task definition.
func (t *Task) Validate() error {
	if t.Name == "" {
		return errors.New("model: task has empty name")
	}
	if len(t.Options) == 0 {
		return fmt.Errorf("model: task %q has no options", t.Name)
	}
	if len(t.Options) > MaxOptions {
		return fmt.Errorf("model: task %q has %d options, library supports at most %d (§5.1)",
			t.Name, len(t.Options), MaxOptions)
	}
	for _, o := range t.Options {
		if err := o.Validate(); err != nil {
			return fmt.Errorf("task %q: %w", t.Name, err)
		}
	}
	return nil
}

// Library limits from paper §5.1: "Our software library supports a maximum
// of 32 tasks, with 4 degradation options for each task."
const (
	MaxTasks   = 32
	MaxOptions = 4
)

// NoSpawn marks a job that does not re-insert its input.
const NoSpawn = -1

// Job is an ordered sequence of tasks processing one buffered input.
type Job struct {
	ID    int
	Name  string
	Tasks []*Task
	// SpawnJobID, when not NoSpawn, re-inserts the input tagged for that
	// job after this job completes its full task sequence (i.e. the
	// classify chain, if any, was positive).
	SpawnJobID int
}

// DegradableTask returns the index of the job's degradable task, or -1.
func (j *Job) DegradableTask() int {
	for i, t := range j.Tasks {
		if t.Degradable() {
			return i
		}
	}
	return -1
}

// Validate enforces the §5.2 contract: at most one degradable task per job.
func (j *Job) Validate() error {
	if j.Name == "" {
		return fmt.Errorf("model: job %d has empty name", j.ID)
	}
	if len(j.Tasks) == 0 {
		return fmt.Errorf("model: job %q has no tasks", j.Name)
	}
	deg := 0
	for i, t := range j.Tasks {
		if t == nil {
			return fmt.Errorf("model: job %q task %d is nil", j.Name, i)
		}
		if err := t.Validate(); err != nil {
			return fmt.Errorf("job %q: %w", j.Name, err)
		}
		if t.Degradable() {
			deg++
		}
	}
	if deg > 1 {
		return fmt.Errorf("model: job %q has %d degradable tasks, at most 1 allowed", j.Name, deg)
	}
	if j.Tasks[0].Conditional {
		return fmt.Errorf("model: job %q starts with a conditional task", j.Name)
	}
	return nil
}

// App is a complete application: the jobs the scheduler selects among, plus
// the fixed capture-pipeline costs paid at every frame regardless of
// scheduling (camera readout, pixel differencing, storing/JPEG).
type App struct {
	Name string
	Jobs []*Job
	// EntryJobID is the job that processes freshly captured inputs.
	EntryJobID int
	// Capture pipeline cost per frame (always incurred while the device is
	// on): the paper's systems "always compress images before storing".
	CaptureTexe, CapturePexe float64
}

// Validate checks the whole application.
func (a *App) Validate() error {
	if len(a.Jobs) == 0 {
		return errors.New("model: app has no jobs")
	}
	ids := map[int]bool{}
	totalTasks := 0
	for _, j := range a.Jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		if ids[j.ID] {
			return fmt.Errorf("model: duplicate job id %d", j.ID)
		}
		ids[j.ID] = true
		totalTasks += len(j.Tasks)
	}
	if totalTasks > MaxTasks {
		return fmt.Errorf("model: app has %d tasks, library supports at most %d (§5.1)", totalTasks, MaxTasks)
	}
	for _, j := range a.Jobs {
		if j.SpawnJobID != NoSpawn && !ids[j.SpawnJobID] {
			return fmt.Errorf("model: job %q spawns unknown job id %d", j.Name, j.SpawnJobID)
		}
	}
	if !ids[a.EntryJobID] {
		return fmt.Errorf("model: entry job id %d not defined", a.EntryJobID)
	}
	if a.CaptureTexe < 0 || a.CapturePexe < 0 {
		return errors.New("model: capture costs must be non-negative")
	}
	return nil
}

// JobByID returns the job with the given id, or nil.
func (a *App) JobByID(id int) *Job {
	for _, j := range a.Jobs {
		if j.ID == id {
			return j
		}
	}
	return nil
}
