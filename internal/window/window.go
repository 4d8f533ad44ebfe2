// Package window implements the fixed-size bit-vector history windows that
// Quetzal's software library uses to track task execution probability and
// input-arrival rate (paper §5.1).
//
// A BitWindow records the most recent N boolean observations. A set bit
// means "the task executed for this input" (task windows) or "this captured
// input was stored in the memory queue" (arrival windows). The window keeps
// a running count of set bits — the paper's "1-counter" — so that reading
// the current probability or rate is O(1) and updating on job completion is
// O(1) amortised.
//
// Paper defaults: <task-window> = 64, <arrival-window> = 256 (Table 1).
package window

import (
	"fmt"
	"math/bits"
)

// Default window sizes from Table 1 of the paper.
const (
	DefaultTaskWindow    = 64
	DefaultArrivalWindow = 256
)

const wordBits = 64

// BitWindow is a ring of the most recent Size boolean observations with an
// O(1) population count. The zero value is not usable; construct with New.
type BitWindow struct {
	words []uint64
	size  int // capacity in bits
	head  int // index of the next bit to be written
	n     int // number of observations recorded, saturates at size
	ones  int // the 1-counter: set bits among the recorded observations
}

// New returns a BitWindow holding up to size observations.
// It panics if size is not positive (a configuration error).
func New(size int) *BitWindow {
	if size <= 0 {
		panic(fmt.Sprintf("window: size must be positive, got %d", size))
	}
	nwords := (size + wordBits - 1) / wordBits
	return &BitWindow{words: make([]uint64, nwords), size: size}
}

// Size returns the window capacity in observations.
func (w *BitWindow) Size() int { return w.size }

// Len returns how many observations have been recorded, at most Size.
func (w *BitWindow) Len() int { return w.n }

// Ones returns the number of set bits among the recorded observations.
// Production code reads the counter only through Fraction; Ones is kept as
// test infrastructure, the incremental counter that Recount checks.
func (w *BitWindow) Ones() int { return w.ones }

// Push records one observation, evicting the oldest if the window is full.
func (w *BitWindow) Push(v bool) {
	word, bit := w.head/wordBits, uint(w.head%wordBits)
	mask := uint64(1) << bit
	if w.n == w.size {
		// Evict the bit currently stored at head (the oldest observation).
		if w.words[word]&mask != 0 {
			w.ones--
		}
	} else {
		w.n++
	}
	if v {
		w.words[word] |= mask
		w.ones++
	} else {
		w.words[word] &^= mask
	}
	w.head++
	if w.head == w.size {
		w.head = 0
	}
}

// Fraction returns Ones()/Len(), the empirical probability of a set
// observation. Before any observation is recorded it returns fallback, so a
// fresh system can start from a configured prior instead of 0/0.
func (w *BitWindow) Fraction(fallback float64) float64 {
	if w.n == 0 {
		return fallback
	}
	return float64(w.ones) / float64(w.n)
}

// Reset clears all recorded observations.
func (w *BitWindow) Reset() {
	for i := range w.words {
		w.words[i] = 0
	}
	w.head, w.n, w.ones = 0, 0, 0
}

// Recount recomputes the 1-counter from the raw bits. It is test
// infrastructure: tests and FuzzBitWindow compare it with Ones to verify the
// incremental counter never drifts; it is O(size/64).
func (w *BitWindow) Recount() int {
	if w.n == w.size {
		total := 0
		for _, wd := range w.words {
			total += bits.OnesCount64(wd)
		}
		// All size bits are live; mask away bits beyond size in the last word.
		if rem := w.size % wordBits; rem != 0 {
			last := w.words[len(w.words)-1]
			total -= bits.OnesCount64(last &^ (1<<uint(rem) - 1))
		}
		return total
	}
	// Only the n bits before head (wrapping) are live; with n < size those
	// are exactly bits [0, head) since we have never wrapped.
	total := 0
	for i := 0; i < w.n; i++ {
		word, bit := i/wordBits, uint(i%wordBits)
		if w.words[word]&(1<<bit) != 0 {
			total++
		}
	}
	return total
}

// String renders a compact summary for debugging.
func (w *BitWindow) String() string {
	return fmt.Sprintf("window{%d/%d ones=%d}", w.n, w.size, w.ones)
}
