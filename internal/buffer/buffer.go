// Package buffer implements the on-device input buffer that Quetzal models
// as a queue (paper §3.1). The buffer has a fixed capacity limited by device
// memory (e.g. 10 images on the evaluated platforms, Table 1). Inputs that
// arrive to a full buffer are lost — those losses are the input buffer
// overflows (IBOs) the paper exists to prevent. Push reports each loss; the
// engine counts them in its Results, split by whether the dropped input was
// "interesting".
package buffer

import (
	"errors"
	"fmt"
)

// ErrEmpty is returned when removing from an empty buffer.
var ErrEmpty = errors.New("buffer: empty")

// Input is one buffered sensor input (e.g. a compressed image awaiting
// processing) together with the metadata the scheduler and the metrics
// accounting need.
type Input struct {
	// Seq is the capture sequence number, globally unique and increasing.
	Seq uint64
	// CapturedAt is the simulation time of capture, in seconds.
	CapturedAt float64
	// Interesting is the ground-truth label: the input was captured during
	// an event the application cares about. The device never reads this
	// directly; classifiers observe it only through their error rates.
	Interesting bool
	// JobID identifies the job that must process this input next. A job
	// that spawns follow-up work re-inserts the input with a new JobID
	// (paper §3.1: "it can be re-inserted into the queue by the previous
	// job").
	JobID int
	// EnqueuedAt is the simulation time the input (re-)entered the buffer.
	EnqueuedAt float64
}

// Buffer is a bounded FIFO of Inputs. It is not concurrency-safe; the
// simulator is single-threaded like the device.
type Buffer struct {
	items    []Input
	capacity int
	jobIDs   []int // JobIDs' reused result
}

// New returns an empty buffer with the given capacity in inputs.
func New(capacity int) *Buffer {
	if capacity <= 0 {
		panic(fmt.Sprintf("buffer: capacity must be positive, got %d", capacity))
	}
	// Cap the preallocation: the Ideal baseline models an effectively
	// infinite buffer with a huge capacity, and must not reserve it all.
	prealloc := capacity
	if prealloc > 64 {
		prealloc = 64
	}
	return &Buffer{items: make([]Input, 0, prealloc), capacity: capacity}
}

// Capacity returns the maximum number of buffered inputs.
func (b *Buffer) Capacity() int { return b.capacity }

// Len returns the current occupancy.
func (b *Buffer) Len() int { return len(b.items) }

// Full reports whether the buffer is at capacity.
func (b *Buffer) Full() bool { return len(b.items) == b.capacity }

// Push appends an input. If the buffer is full the input is dropped and
// Push reports false.
func (b *Buffer) Push(in Input) bool {
	if b.Full() {
		return false
	}
	b.items = append(b.items, in)
	return true
}

// Peek returns the oldest input without removing it.
func (b *Buffer) Peek() (Input, error) {
	if len(b.items) == 0 {
		return Input{}, ErrEmpty
	}
	return b.items[0], nil
}

// OldestForJob returns the index of the oldest input awaiting the given job,
// or -1 if none is buffered. "Oldest" is by capture time, so a scheduler that
// breaks E[S] ties by input age (paper §4.1) can use it directly.
func (b *Buffer) OldestForJob(jobID int) int {
	best := -1
	for i, in := range b.items {
		if in.JobID != jobID {
			continue
		}
		if best == -1 || in.CapturedAt < b.items[best].CapturedAt {
			best = i
		}
	}
	return best
}

// JobIDs returns the distinct JobIDs with at least one pending input, in
// first-seen (FIFO) order. The slice is the buffer's own and is valid until
// the next JobIDs call. Apps have a handful of jobs, so a linear scan of the
// IDs found so far beats a set.
func (b *Buffer) JobIDs() []int {
	ids := b.jobIDs[:0]
next:
	for _, in := range b.items {
		for _, id := range ids {
			if id == in.JobID {
				continue next
			}
		}
		ids = append(ids, in.JobID)
	}
	b.jobIDs = ids
	return ids
}

// RemoveAt removes and returns the input at index i (0 = oldest).
func (b *Buffer) RemoveAt(i int) (Input, error) {
	if i < 0 || i >= len(b.items) {
		return Input{}, fmt.Errorf("buffer: index %d out of range [0,%d)", i, len(b.items))
	}
	in := b.items[i]
	copy(b.items[i:], b.items[i+1:])
	b.items = b.items[:len(b.items)-1]
	return in, nil
}

// Retag re-labels the input at index i for a follow-up job without moving
// it: the paper's "re-inserted into the queue by the previous job" keeps
// the image in the same memory slot, so re-tagging can never overflow.
func (b *Buffer) Retag(i, newJobID int, now float64) error {
	if i < 0 || i >= len(b.items) {
		return fmt.Errorf("buffer: index %d out of range [0,%d)", i, len(b.items))
	}
	b.items[i].JobID = newJobID
	b.items[i].EnqueuedAt = now
	return nil
}

// IndexOfSeq returns the index of the input with the given sequence number,
// or -1 if it is not buffered.
func (b *Buffer) IndexOfSeq(seq uint64) int {
	for i, in := range b.items {
		if in.Seq == seq {
			return i
		}
	}
	return -1
}

// At returns the input at index i without removing it.
func (b *Buffer) At(i int) (Input, error) {
	if i < 0 || i >= len(b.items) {
		return Input{}, fmt.Errorf("buffer: index %d out of range [0,%d)", i, len(b.items))
	}
	return b.items[i], nil
}
