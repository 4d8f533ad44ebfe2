package buffer

import "testing"

// FuzzBufferOps drives the buffer with an arbitrary op stream through the
// calls the controllers make (Push, Peek, RemoveAt, Retag, OldestForJob)
// and checks it against a plain slice after every op: a full buffer drops
// the newcomer and keeps what it holds, and removals keep the rest in order.
func FuzzBufferOps(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2, 0, 3})
	f.Add(uint8(1), []byte{0, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, capRaw uint8, ops []byte) {
		capacity := int(capRaw)%12 + 1
		b := New(capacity)
		var model []Input
		for i, op := range ops {
			switch op % 5 {
			case 0, 1:
				in := Input{Seq: uint64(i), CapturedAt: float64(i), Interesting: op%2 == 0, JobID: int(op) % 3}
				room := len(model) < capacity
				if b.Push(in) != room {
					t.Fatalf("op %d: Push accepted=%v at len %d of %d", i, !room, len(model), capacity)
				}
				if room {
					model = append(model, in)
				}
			case 2: // FIFO service: Peek the head, then remove it
				got, err := b.Peek()
				if len(model) == 0 {
					if err != ErrEmpty {
						t.Fatalf("op %d: Peek on empty = %v, want ErrEmpty", i, err)
					}
					break
				}
				if err != nil || got != model[0] {
					t.Fatalf("op %d: Peek = (%+v, %v), want %+v", i, got, err, model[0])
				}
				if _, err := b.RemoveAt(0); err != nil {
					t.Fatal(err)
				}
				model = model[1:]
			case 3: // re-insertion for a follow-up job, then pick the oldest
				if len(model) == 0 {
					break
				}
				k, job := int(op)%len(model), int(op/5)%3
				if err := b.Retag(k, job, float64(i)); err != nil {
					t.Fatal(err)
				}
				model[k].JobID, model[k].EnqueuedAt = job, float64(i)
				want := -1
				for j, in := range model {
					if in.JobID == job && (want == -1 || in.CapturedAt < model[want].CapturedAt) {
						want = j
					}
				}
				if got := b.OldestForJob(job); got != want {
					t.Fatalf("op %d: OldestForJob(%d) = %d, want %d", i, job, got, want)
				}
			case 4:
				if len(model) == 0 {
					break
				}
				k := int(op) % len(model)
				rm, err := b.RemoveAt(k)
				if err != nil || rm != model[k] {
					t.Fatalf("op %d: RemoveAt(%d) = (%+v, %v), want %+v", i, k, rm, err, model[k])
				}
				model = append(model[:k], model[k+1:]...)
			}
			if b.Len() != len(model) {
				t.Fatalf("op %d: len %d, want %d", i, b.Len(), len(model))
			}
			for k, want := range model {
				if got, _ := b.At(k); got != want {
					t.Fatalf("op %d: At(%d) = %+v, want %+v", i, k, got, want)
				}
			}
		}
	})
}
