// Package host adapts a core.Controller (the Quetzal runtime or a
// baseline) to a real execution environment: instead of the fixed-increment
// simulator, the Loop drives actual task implementations supplied by the
// embedding program and is paced by a caller-provided clock.
//
// This is the "firmware glue" layer: a port to a real device implements
// Executor (run this task at this quality on this input) and PowerSensor
// (read the harvest meter), wires sensor interrupts to OnCapture, and calls
// Step from its main loop. Everything Quetzal needs — measurements,
// scheduling, feedback — flows through the same Controller interface the
// simulator uses, so behaviour validated in simulation carries over.
package host

import (
	"errors"
	"fmt"

	"quetzal/internal/buffer"
	"quetzal/internal/core"
	"quetzal/internal/model"
)

// Outcome reports what a task execution produced.
type Outcome struct {
	// Positive is the classification result for Classify tasks; ignored
	// for other kinds.
	Positive bool
}

// Executor runs application tasks for real. Implementations wrap the actual
// inference/compression/radio code on the device (or test doubles).
type Executor interface {
	// ExecuteTask runs the given task of the job at the option's quality
	// on the input. Blocking; returns when the task completes.
	ExecuteTask(job *model.Job, taskIdx int, opt model.Option, in buffer.Input) (Outcome, error)
}

// ExecutorFunc adapts a function to the Executor interface.
type ExecutorFunc func(job *model.Job, taskIdx int, opt model.Option, in buffer.Input) (Outcome, error)

// ExecuteTask implements Executor.
func (f ExecutorFunc) ExecuteTask(job *model.Job, taskIdx int, opt model.Option, in buffer.Input) (Outcome, error) {
	return f(job, taskIdx, opt, in)
}

// Config assembles a Loop.
type Config struct {
	App        *model.App
	Controller core.Controller
	Executor   Executor
	// BufferCapacity sizes the input buffer (e.g. 10 images).
	BufferCapacity int
	// Now returns the current time in seconds (monotonic). Injected so
	// tests and non-realtime hosts control pacing.
	Now func() float64
	// MeasurePower returns the instantaneous harvest power in watts (on
	// real hardware, the Quetzal module's input-path reading).
	MeasurePower func() float64
}

// Loop drives one device's processing.
type Loop struct {
	cfg Config
	buf *buffer.Buffer
	seq uint64

	// Counters for observability.
	Captures, Stored, Dropped, JobsRun int
}

// New validates cfg and builds a Loop.
func New(cfg Config) (*Loop, error) {
	if cfg.App == nil || cfg.Controller == nil || cfg.Executor == nil {
		return nil, errors.New("host: App, Controller and Executor are required")
	}
	if err := cfg.App.Validate(); err != nil {
		return nil, err
	}
	if cfg.BufferCapacity <= 0 {
		return nil, fmt.Errorf("host: buffer capacity must be positive, got %d", cfg.BufferCapacity)
	}
	if cfg.Now == nil || cfg.MeasurePower == nil {
		return nil, errors.New("host: Now and MeasurePower are required")
	}
	return &Loop{cfg: cfg, buf: buffer.New(cfg.BufferCapacity)}, nil
}

// Buffer exposes the input buffer (e.g. for occupancy displays).
func (l *Loop) Buffer() *buffer.Buffer { return l.buf }

// OnCapture feeds one captured input. stored=false marks frames the cheap
// pre-filter discarded (they still train the arrival-rate tracker). It
// returns whether the input was accepted into the buffer.
func (l *Loop) OnCapture(interesting bool, stored bool) bool {
	l.Captures++
	l.cfg.Controller.ObserveCapture(stored)
	if !stored {
		return false
	}
	l.Stored++
	in := buffer.Input{
		Seq:         l.seq,
		CapturedAt:  l.cfg.Now(),
		Interesting: interesting,
		JobID:       l.cfg.App.EntryJobID,
		EnqueuedAt:  l.cfg.Now(),
	}
	l.seq++
	if !l.buf.Push(in) {
		l.Dropped++
		return false
	}
	return true
}

// Step runs at most one job to completion: it asks the controller for the
// next decision, executes the job's tasks through the Executor, applies
// spawn semantics, and reports feedback. It returns false when the buffer
// is empty (nothing to do).
func (l *Loop) Step() (bool, error) {
	env := core.Env{
		Now:        l.cfg.Now(),
		InputPower: l.cfg.MeasurePower(),
		BufferLen:  l.buf.Len(),
		BufferCap:  l.buf.Capacity(),
	}
	dec, ok := l.cfg.Controller.NextJob(env, l.buf)
	if !ok {
		return false, nil
	}
	in, err := l.buf.At(dec.BufferIndex)
	if err != nil {
		return false, fmt.Errorf("host: controller returned stale index %d: %w", dec.BufferIndex, err)
	}
	job := l.cfg.App.JobByID(dec.JobID)
	if job == nil {
		return false, fmt.Errorf("host: controller selected unknown job %d", dec.JobID)
	}
	options := dec.Options
	if len(options) != len(job.Tasks) {
		options = make([]int, len(job.Tasks))
	}

	started := l.cfg.Now()
	executed := make([]bool, len(job.Tasks))
	positive := true
	for ti, task := range job.Tasks {
		if task.Conditional && !positive {
			continue
		}
		opt := options[ti]
		if opt < 0 || opt >= len(task.Options) {
			opt = 0
		}
		out, err := l.cfg.Executor.ExecuteTask(job, ti, task.Options[opt], in)
		if err != nil {
			return false, fmt.Errorf("host: task %s/%s: %w", job.Name, task.Name, err)
		}
		executed[ti] = true
		if task.Kind == model.Classify && !out.Positive {
			positive = false
		}
	}

	// Departure or re-tag for the follow-up job.
	spawned := job.SpawnJobID != model.NoSpawn && positive
	if idx := l.buf.IndexOfSeq(in.Seq); idx >= 0 {
		if spawned {
			if err := l.buf.Retag(idx, job.SpawnJobID, l.cfg.Now()); err != nil {
				return false, err
			}
		} else if _, err := l.buf.RemoveAt(idx); err != nil {
			return false, err
		}
	}

	l.JobsRun++
	l.cfg.Controller.OnJobComplete(core.Feedback{
		JobID:      job.ID,
		Executed:   executed,
		Spawned:    spawned,
		PredictedS: dec.ModelS,
		ObservedS:  l.cfg.Now() - started,
		Now:        l.cfg.Now(),
	})
	return true, nil
}

// Drain calls Step until the buffer is empty or maxJobs have run, returning
// how many jobs executed.
func (l *Loop) Drain(maxJobs int) (int, error) {
	ran := 0
	for ran < maxJobs {
		ok, err := l.Step()
		if err != nil {
			return ran, err
		}
		if !ok {
			break
		}
		ran++
	}
	return ran, nil
}
