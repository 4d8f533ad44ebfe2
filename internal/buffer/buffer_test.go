package buffer

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func in(seq uint64, t float64, interesting bool, job int) Input {
	return Input{Seq: seq, CapturedAt: t, Interesting: interesting, JobID: job}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	for _, c := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", c)
				}
			}()
			New(c)
		}()
	}
}

func TestFIFOOrder(t *testing.T) {
	b := New(3)
	for i := uint64(0); i < 3; i++ {
		if !b.Push(in(i, float64(i), false, 0)) {
			t.Fatalf("Push %d rejected", i)
		}
	}
	// Serving the head each time (Peek, then RemoveAt(0)) yields capture order.
	for i := uint64(0); i < 3; i++ {
		got, err := b.Peek()
		if err != nil {
			t.Fatalf("Peek: %v", err)
		}
		if got.Seq != i {
			t.Errorf("head seq = %d, want %d", got.Seq, i)
		}
		if _, err := b.RemoveAt(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Peek(); err != ErrEmpty {
		t.Errorf("Peek on empty = %v, want ErrEmpty", err)
	}
}

func TestOverflowAccounting(t *testing.T) {
	b := New(2)
	b.Push(in(0, 0, false, 0))
	b.Push(in(1, 1, false, 0))
	// Full: the newcomer is the one lost, interesting or not, and the
	// buffered inputs stay where they are.
	for seq := uint64(2); seq < 4; seq++ {
		if b.Push(in(seq, float64(seq), seq == 2, 0)) {
			t.Fatalf("Push %d into full buffer succeeded", seq)
		}
	}
	for i, want := range []uint64{0, 1} {
		if got, _ := b.At(i); got.Seq != want {
			t.Errorf("At(%d).Seq = %d, want %d", i, got.Seq, want)
		}
	}
	// Serving one input makes room for exactly one more.
	if _, err := b.RemoveAt(0); err != nil {
		t.Fatal(err)
	}
	if !b.Push(in(5, 5, false, 0)) || b.Push(in(6, 6, false, 0)) {
		t.Error("after one removal, want one accepted push and one drop")
	}
}

func TestJobSelection(t *testing.T) {
	b := New(10)
	// Inputs awaiting job 0 and job 1, interleaved and out of capture order.
	b.Push(Input{Seq: 5, CapturedAt: 5, JobID: 1})
	b.Push(Input{Seq: 1, CapturedAt: 1, JobID: 0})
	b.Push(Input{Seq: 3, CapturedAt: 3, JobID: 1, EnqueuedAt: 9})
	b.Push(Input{Seq: 2, CapturedAt: 2, JobID: 0})

	ids := b.JobIDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 0 {
		t.Errorf("JobIDs = %v, want [1 0] (first-seen order)", ids)
	}
	// Oldest-by-capture for job 1 is seq 3 at index 2.
	idx := b.OldestForJob(1)
	got, err := b.At(idx)
	if err != nil || got.Seq != 3 {
		t.Errorf("OldestForJob(1) -> seq %d (err %v), want 3", got.Seq, err)
	}
	if b.OldestForJob(99) != -1 {
		t.Errorf("OldestForJob(99) = %d, want -1", b.OldestForJob(99))
	}
	// RemoveAt preserves order of the rest.
	rm, err := b.RemoveAt(idx)
	if err != nil || rm.Seq != 3 {
		t.Fatalf("RemoveAt(%d) = (%v, %v), want seq 3", idx, rm.Seq, err)
	}
	want := []uint64{5, 1, 2}
	for i, w := range want {
		got, _ := b.At(i)
		if got.Seq != w {
			t.Errorf("After RemoveAt, At(%d).Seq = %d, want %d", i, got.Seq, w)
		}
	}
}

func TestAtAndRemoveAtBounds(t *testing.T) {
	b := New(2)
	b.Push(in(0, 0, false, 0))
	if _, err := b.At(-1); err == nil {
		t.Error("At(-1) did not error")
	}
	if _, err := b.At(1); err == nil {
		t.Error("At(1) past end did not error")
	}
	if _, err := b.RemoveAt(5); err == nil {
		t.Error("RemoveAt(5) did not error")
	}
}

func TestPeek(t *testing.T) {
	b := New(2)
	if _, err := b.Peek(); err != ErrEmpty {
		t.Errorf("Peek empty = %v, want ErrEmpty", err)
	}
	b.Push(in(9, 0, false, 0))
	got, err := b.Peek()
	if err != nil || got.Seq != 9 {
		t.Errorf("Peek = (%v, %v), want seq 9", got.Seq, err)
	}
	if b.Len() != 1 {
		t.Errorf("Peek consumed the input: Len = %d", b.Len())
	}
}

func TestHugeCapacityDoesNotPreallocate(t *testing.T) {
	b := New(1 << 30) // the Ideal baseline's "infinite" buffer
	if cap(b.items) > 64 {
		t.Errorf("preallocated cap = %d, want ≤ 64", cap(b.items))
	}
	if !b.Push(in(0, 0, false, 0)) {
		t.Error("Push into huge buffer rejected")
	}
}

// Property: occupancy never exceeds capacity, and conservation holds —
// pushes = removals + drops + remaining, where a drop is a rejected Push.
func TestPropertyConservation(t *testing.T) {
	f := func(seed int64, capRaw uint8, ops uint16) bool {
		capacity := int(capRaw)%10 + 1
		rng := rand.New(rand.NewSource(seed))
		b := New(capacity)
		pushes, removals, drops := 0, 0, 0
		for i := 0; i < int(ops); i++ {
			if rng.Intn(3) != 0 {
				if !b.Push(in(uint64(i), float64(i), rng.Intn(2) == 0, rng.Intn(3))) {
					drops++
				}
				pushes++
			} else if b.Len() > 0 {
				if _, err := b.RemoveAt(rng.Intn(b.Len())); err == nil {
					removals++
				}
			}
			if b.Len() > capacity {
				return false
			}
		}
		return pushes == removals+drops+b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
