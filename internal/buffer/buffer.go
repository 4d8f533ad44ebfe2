// Package buffer implements the on-device input buffer that Quetzal models
// as a queue (paper §3.1). The buffer has a fixed capacity limited by device
// memory (e.g. 10 images on the evaluated platforms, Table 1). Inputs that
// arrive to a full buffer are lost — those losses are the input buffer
// overflows (IBOs) the paper exists to prevent — so the buffer counts every
// drop, split by whether the dropped input was "interesting".
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

// DropStats counts inputs lost at the buffer boundary.
type DropStats struct {
	Total             int // all inputs dropped due to a full buffer
	Interesting       int // dropped inputs that were interesting (the paper's "IBO" losses)
	Uninteresting     int // dropped inputs that were not
	ReinsertionsLost  int // dropped re-insertions (input survived stage 1 but its follow-up job was lost)
	PeakOccupancy     int // high-water mark of buffer occupancy
	OverflowIncidents int // number of distinct full→drop episodes
}

// Buffer is a bounded FIFO of Inputs with drop accounting. It is not
// concurrency-safe; the simulator is single-threaded like the device.
type Buffer struct {
	items    []Input
	capacity int
	drops    DropStats
	wasFull  bool  // tracks overflow episode boundaries
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

// Free returns the remaining space.
func (b *Buffer) Free() int { return b.capacity - len(b.items) }

// Full reports whether the buffer is at capacity.
func (b *Buffer) Full() bool { return len(b.items) == b.capacity }

// Occupancy returns Len/Capacity in [0,1].
func (b *Buffer) Occupancy() float64 { return float64(len(b.items)) / float64(b.capacity) }

// Push appends an input. If the buffer is full the input is dropped, the
// drop statistics are updated, and Push reports false. reinsertion marks
// pushes that re-enter an input for a follow-up job.
func (b *Buffer) Push(in Input, reinsertion bool) bool {
	if b.Full() {
		b.drops.Total++
		if in.Interesting {
			b.drops.Interesting++
		} else {
			b.drops.Uninteresting++
		}
		if reinsertion {
			b.drops.ReinsertionsLost++
		}
		if !b.wasFull {
			b.drops.OverflowIncidents++
			b.wasFull = true
		}
		return false
	}
	b.wasFull = false
	b.items = append(b.items, in)
	if len(b.items) > b.drops.PeakOccupancy {
		b.drops.PeakOccupancy = len(b.items)
	}
	return true
}

// Peek returns the oldest input without removing it.
func (b *Buffer) Peek() (Input, error) {
	if len(b.items) == 0 {
		return Input{}, ErrEmpty
	}
	return b.items[0], nil
}

// Pop removes and returns the oldest input (FIFO order).
func (b *Buffer) Pop() (Input, error) {
	if len(b.items) == 0 {
		return Input{}, ErrEmpty
	}
	in := b.items[0]
	copy(b.items, b.items[1:])
	b.items = b.items[:len(b.items)-1]
	return in, nil
}

// PopNewest removes and returns the most recent input (LIFO order, used by
// the LCFS scheduling baseline).
func (b *Buffer) PopNewest() (Input, error) {
	if len(b.items) == 0 {
		return Input{}, ErrEmpty
	}
	in := b.items[len(b.items)-1]
	b.items = b.items[:len(b.items)-1]
	return in, nil
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

// PendingForJob counts buffered inputs awaiting the given job.
func (b *Buffer) PendingForJob(jobID int) int {
	n := 0
	for _, in := range b.items {
		if in.JobID == jobID {
			n++
		}
	}
	return n
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

// Drops returns a copy of the drop statistics.
func (b *Buffer) Drops() DropStats { return b.drops }

// Reset empties the buffer and clears statistics.
func (b *Buffer) Reset() {
	b.items = b.items[:0]
	b.drops = DropStats{}
	b.wasFull = false
}
