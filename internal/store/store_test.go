package store

// The store was specified by these tests before the service touched it:
// durable round-trips, first-wins idempotent puts, cross-handle sharing
// through nothing but the shared directory, claim-file semantics, and id
// hygiene (ids become claim filenames, so they must stay lowercase hex).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testRecord(i int) Record {
	return Record{
		ID:      fmt.Sprintf("%016x", i+1),
		Key:     fmt.Sprintf("qz/crowded seed=%d", i+1),
		Payload: []byte(fmt.Sprintf(`{"System":"qz","JobsCompleted":%d}`, i)),
	}
}

func mustPut(t *testing.T, s *Store, rec Record) {
	t.Helper()
	if err := s.Put(rec.ID, rec.Key, rec.Payload); err != nil {
		t.Fatalf("Put(%s): %v", rec.ID, err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	recs := make([]Record, 20)
	for i := range recs {
		recs[i] = testRecord(i)
		mustPut(t, s, recs[i])
	}
	if s.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(recs))
	}
	for _, want := range recs {
		got, ok := s.Get(want.ID)
		if !ok {
			t.Fatalf("Get(%s) missed", want.ID)
		}
		if got.ID != want.ID || got.Key != want.Key || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("Get(%s) = %+v, want %+v", want.ID, got, want)
		}
	}
	if _, ok := s.Get("00000000deadbeef"); ok {
		t.Fatal("Get of an unknown id succeeded")
	}
	st := s.Stats()
	if st.Puts != int64(len(recs)) || st.Hits != int64(len(recs)) || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReopenServesEverything(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, 8)
	for i := range recs {
		recs[i] = testRecord(i)
		mustPut(t, s, recs[i])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(recs) {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), len(recs))
	}
	for _, want := range recs {
		got, ok := s2.Get(want.ID)
		if !ok || !bytes.Equal(got.Payload, want.Payload) || got.Key != want.Key {
			t.Fatalf("reopened Get(%s) = %+v ok=%v, want %+v", want.ID, got, ok, want)
		}
	}
}

// TestCrossHandleSharing is the two-replica contract in miniature: two
// handles on one directory, and a record published through one is readable
// through the other with no coordination — Get refreshes on miss.
func TestCrossHandleSharing(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(dir) // opened BEFORE a writes: must pick up growth
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	rec := testRecord(1)
	mustPut(t, a, rec)
	got, ok := b.Get(rec.ID)
	if !ok || !bytes.Equal(got.Payload, rec.Payload) {
		t.Fatalf("handle b did not see handle a's record: ok=%v got=%+v", ok, got)
	}

	// And the reverse: b appends to its own segment, a sees it.
	rec2 := testRecord(2)
	mustPut(t, b, rec2)
	if got, ok := a.Get(rec2.ID); !ok || !bytes.Equal(got.Payload, rec2.Payload) {
		t.Fatalf("handle a did not see handle b's record: ok=%v got=%+v", ok, got)
	}

	// Two segments on disk, one per writing handle.
	segs := 0
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == segSuffix {
			segs++
		}
	}
	if segs != 2 {
		t.Fatalf("segment files = %d, want 2", segs)
	}
}

func TestPutFirstWinsIdempotent(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir)
	defer a.Close()
	b, _ := Open(dir)
	defer b.Close()

	rec := testRecord(1)
	mustPut(t, a, rec)
	// A duplicate publish (claim race, replica restart) is dropped, even
	// through a different handle with different bytes on offer.
	if err := b.Put(rec.ID, rec.Key, []byte(`{"other":"bytes"}`)); err != nil {
		t.Fatalf("duplicate Put: %v", err)
	}
	got, ok := b.Get(rec.ID)
	if !ok || !bytes.Equal(got.Payload, rec.Payload) {
		t.Fatalf("duplicate Put replaced the record: %+v", got)
	}
	if st := b.Stats(); st.DupPuts != 1 {
		t.Fatalf("DupPuts = %d, want 1", st.DupPuts)
	}
}

func TestClaimProtocol(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir)
	defer a.Close()
	b, _ := Open(dir)
	defer b.Close()

	id := testRecord(1).ID
	won, release := a.Claim(id)
	if !won {
		t.Fatal("first claim lost")
	}
	if w2, _ := b.Claim(id); w2 {
		t.Fatal("second claim won while the first was held")
	}
	if !b.Claimed(id) {
		t.Fatal("Claimed = false while a claim is held")
	}
	release()
	release() // idempotent
	if b.Claimed(id) {
		t.Fatal("Claimed = true after release")
	}
	if w3, rel3 := b.Claim(id); !w3 {
		t.Fatal("claim after release lost")
	} else {
		rel3()
	}
}

func TestClaimStaleTakeover(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir)
	defer a.Close()
	id := testRecord(1).ID
	won, releaseA := a.Claim(id)
	if !won {
		t.Fatal("first claim lost")
	}
	// Age the claim file past the TTL: the claimant "crashed".
	path := filepath.Join(dir, claimsDir, id+claimSuffix)
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	b, _ := Open(dir)
	defer b.Close()
	b.StaleClaimTTL = time.Minute
	won, releaseB := b.Claim(id)
	if !won {
		t.Fatal("stale claim was not taken over")
	}
	// A was only slow: its late release must not free B's live claim.
	releaseA()
	c, _ := Open(dir)
	defer c.Close()
	if won, _ := c.Claim(id); won {
		t.Fatal("third claim won while B still holds the claim")
	}
	releaseB()
	if won, _ := c.Claim(id); !won {
		t.Fatal("claim still held after B released it")
	}
}

func TestIDValidation(t *testing.T) {
	s, _ := Open(t.TempDir())
	defer s.Close()
	for _, id := range []string{
		"", "short", "UPPERHEX00000000", "../../../etc/pwn", "0123456789abcdeg",
		"deadbeef/../../x",
	} {
		if err := s.Put(id, "k", []byte("v")); err == nil {
			t.Errorf("Put accepted id %q", id)
		}
		if won, _ := s.Claim(id); won {
			t.Errorf("Claim accepted id %q", id)
		}
	}
	// Claims never leave files for rejected ids.
	entries, _ := os.ReadDir(filepath.Join(s.Dir(), claimsDir))
	if len(entries) != 0 {
		t.Fatalf("rejected ids left %d claim files", len(entries))
	}
}

func TestClosedPutFails(t *testing.T) {
	s, _ := Open(t.TempDir())
	mustPut(t, s, testRecord(1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("00000000000000ff", "k", []byte("v")); err == nil {
		t.Fatal("Put succeeded on a closed store")
	}
	// Reads still work after Close.
	if _, ok := s.Get(testRecord(1).ID); !ok {
		t.Fatal("Get failed after Close")
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, versionFile), []byte("something else\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a foreign VERSION file")
	}
}
