// Package store is the durable, shared, content-addressed result store
// behind quetzald's scale-out: run results keyed by the sha256 run/fleet
// ids the service already derives, persisted to disk so restarts lose
// nothing and replicas pointed at one directory share a cache with no
// coordination service.
//
// Layout (one directory, shared by any number of replicas):
//
//	VERSION            format marker, written atomically (temp+fsync+rename)
//	seg-<nonce>.qzs    append-only record segments, one per open handle
//	claims/<id>.claim  O_EXCL execution-claim files
//
// Each handle appends to its own O_EXCL-created segment and fsyncs after
// every record, so writers never interleave and a published record is
// durable. Readers index every segment in the directory; on a miss the
// index refreshes incrementally (re-scanning only bytes past the last
// valid prefix), which is how one replica sees another's results. A crash
// mid-append leaves a torn tail that reopen and refresh reject — complete
// records before it stay served byte-identically — and a tail that later
// completes (a live writer caught mid-append) is picked up by the next
// refresh.
//
// Claims are advisory duplicate-execution suppression, not locks: Claim
// atomically creates claims/<id>.claim, the winner executes and publishes,
// and losers poll for the record. A claim abandoned by a crashed replica
// goes stale after StaleClaimTTL and can be reclaimed; correctness never
// depends on a claim, because executions are deterministic and Put is
// first-wins idempotent.
package store

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

const (
	versionFile    = "VERSION"
	versionContent = "quetzal result store v1\n"
	segSuffix      = ".qzs"
	claimsDir      = "claims"
	claimSuffix    = ".claim"
)

// DefaultStaleClaimTTL is how old a claim file must be before Claim treats
// it as abandoned by a dead replica and takes it over.
const DefaultStaleClaimTTL = 2 * time.Minute

// Stats is a point-in-time summary of a handle's view of the store.
type Stats struct {
	Records  int   // distinct ids indexed
	Segments int   // segment files seen
	TornSegs int   // segments whose scan stopped before EOF
	Hits     int64 // Get calls served
	Misses   int64 // Get calls that found nothing even after refresh
	Puts     int64 // records this handle appended
	DupPuts  int64 // Puts dropped because the id was already stored
}

// loc addresses one record inside a segment file.
type loc struct {
	file string
	off  int64
	n    int
}

// segState tracks how far into a segment the index has validly scanned.
type segState struct {
	scanned int64 // valid record-prefix length
	torn    bool  // last scan stopped before EOF
}

// Store is one handle on a store directory. Handles are safe for
// concurrent use; any number of handles (across processes) may share a
// directory.
type Store struct {
	// StaleClaimTTL is the age beyond which Claim treats an existing claim
	// file as abandoned. Set before concurrent use; defaults to
	// DefaultStaleClaimTTL.
	StaleClaimTTL time.Duration

	dir   string
	nonce string

	mu     sync.Mutex
	idx    map[string]loc
	segs   map[string]*segState
	w      *os.File // this handle's append segment; nil until first Put
	wName  string
	wOff   int64
	closed bool
	stats  Stats

	// breakWriteAfter, when positive, makes the next Put write only that
	// many bytes of the encoded record and then fail — the injected
	// failpoint the crash-recovery test uses to manufacture a torn tail
	// through the real write path.
	breakWriteAfter int
}

// Open opens (creating if needed) the store directory and indexes every
// complete record already in it.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, claimsDir), 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	vpath := filepath.Join(dir, versionFile)
	switch v, err := os.ReadFile(vpath); {
	case errors.Is(err, os.ErrNotExist):
		if err := writeFileAtomic(vpath, []byte(versionContent)); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	case err != nil:
		return nil, fmt.Errorf("store: %w", err)
	case string(v) != versionContent:
		return nil, fmt.Errorf("store: %s is not a v1 store (VERSION = %q)", dir, v)
	}
	var nb [8]byte
	if _, err := rand.Read(nb[:]); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		StaleClaimTTL: DefaultStaleClaimTTL,
		dir:           dir,
		nonce:         hex.EncodeToString(nb[:]),
		idx:           make(map[string]loc),
		segs:          make(map[string]*segState),
	}
	s.mu.Lock()
	err := s.refreshLocked()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of distinct ids indexed.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// Stats returns a snapshot of the handle's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Records = len(s.idx)
	st.Segments = len(s.segs)
	st.TornSegs = 0
	for _, seg := range s.segs {
		if seg.torn {
			st.TornSegs++
		}
	}
	return st
}

// Get returns the record for id. On an index miss it refreshes the index
// from disk first, so results published by other replicas are visible with
// no coordination beyond the shared directory.
func (s *Store) Get(id string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.idx[id]
	if !ok {
		s.refreshLocked() //nolint:errcheck // a failed refresh is just a miss
		l, ok = s.idx[id]
	}
	if !ok {
		s.stats.Misses++
		return Record{}, false
	}
	rec, err := s.readRecordLocked(l)
	if err != nil {
		s.stats.Misses++
		return Record{}, false
	}
	s.stats.Hits++
	return rec, true
}

// Has reports whether id is indexed, refreshing on a miss like Get but
// without reading the record back (and without moving the hit/miss
// counters — it is a peek, not a serve).
func (s *Store) Has(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.idx[id]; ok {
		return true
	}
	s.refreshLocked() //nolint:errcheck
	_, ok := s.idx[id]
	return ok
}

// Put durably appends a record. Ids are content addresses, so Put is
// first-wins idempotent: a duplicate id is dropped without touching disk.
func (s *Store) Put(id, key string, payload []byte) error {
	if err := validateID(id); err != nil {
		return err
	}
	enc, err := appendRecord(nil, Record{ID: id, Key: key, Payload: payload})
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	_, dup := s.idx[id]
	if !dup {
		// Another handle may have published this id since our last scan;
		// first-wins must hold across replicas, not just within a handle.
		s.refreshLocked() //nolint:errcheck
		_, dup = s.idx[id]
	}
	if dup {
		s.stats.DupPuts++
		return nil
	}
	if s.w == nil {
		if err := s.openSegmentLocked(); err != nil {
			return err
		}
	}
	if s.breakWriteAfter > 0 && s.breakWriteAfter < len(enc) {
		// Injected failpoint: emulate a crash mid-append by writing a
		// partial record through the real path and wedging the handle.
		s.w.Write(enc[:s.breakWriteAfter]) //nolint:errcheck
		s.w.Sync()                         //nolint:errcheck
		s.closed = true
		return fmt.Errorf("store: injected crash after %d bytes", s.breakWriteAfter)
	}
	if _, err := s.w.Write(enc); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.w.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.idx[id] = loc{file: s.wName, off: s.wOff, n: len(enc)}
	s.wOff += int64(len(enc))
	s.segs[s.wName].scanned = s.wOff
	s.stats.Puts++
	return nil
}

// Claim attempts to take the execution claim for id. The winner gets
// won=true and must call release (idempotent) once the result is published
// or the execution failed. Losers get won=false and a no-op release. An
// existing claim older than StaleClaimTTL is treated as abandoned and
// taken over. Release is fenced: it removes the claim file only while the
// file still holds this handle's nonce, so a holder whose claim was taken
// over cannot free the new holder's claim for a third.
func (s *Store) Claim(id string) (won bool, release func()) {
	if validateID(id) != nil {
		return false, func() {}
	}
	path := filepath.Join(s.dir, claimsDir, id+claimSuffix)
	for attempt := 0; attempt < 2; attempt++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o666)
		if err == nil {
			f.WriteString(s.nonce) //nolint:errcheck
			f.Close()              //nolint:errcheck
			var once sync.Once
			return true, func() {
				once.Do(func() {
					if b, err := os.ReadFile(path); err == nil && string(b) == s.nonce {
						os.Remove(path) //nolint:errcheck
					}
				})
			}
		}
		if !errors.Is(err, os.ErrExist) {
			return false, func() {}
		}
		fi, serr := os.Stat(path)
		if serr != nil {
			continue // released between create and stat: retry once
		}
		if time.Since(fi.ModTime()) < s.staleTTL() {
			return false, func() {}
		}
		os.Remove(path) //nolint:errcheck // stale claim from a dead replica
	}
	return false, func() {}
}

// Claimed reports whether an execution claim for id currently exists.
func (s *Store) Claimed(id string) bool {
	if validateID(id) != nil {
		return false
	}
	_, err := os.Stat(filepath.Join(s.dir, claimsDir, id+claimSuffix))
	return err == nil
}

// Close releases the handle's append segment. Reads keep working; further
// Puts fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.w == nil {
		return nil
	}
	err := s.w.Close()
	s.w = nil
	return err
}

func (s *Store) staleTTL() time.Duration {
	if s.StaleClaimTTL > 0 {
		return s.StaleClaimTTL
	}
	return DefaultStaleClaimTTL
}

// openSegmentLocked creates this handle's own append-only segment. O_EXCL
// guarantees no two handles ever share a write fd, which is the whole
// multi-writer story: concurrent replicas append to disjoint files.
func (s *Store) openSegmentLocked() error {
	name := "seg-" + s.nonce + segSuffix
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o666)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	s.w, s.wName, s.wOff = f, name, 0
	s.segs[name] = &segState{}
	return nil
}

// refreshLocked incrementally indexes every segment in the directory:
// only bytes past each segment's last valid prefix are re-read, so a
// refresh against an unchanged directory is a readdir plus stats.
func (s *Store) refreshLocked() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var firstErr error
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue // racing deletion
		}
		seg := s.segs[name]
		if seg == nil {
			seg = &segState{}
			s.segs[name] = seg
		}
		if fi.Size() <= seg.scanned {
			continue
		}
		if err := s.scanSegmentLocked(name, seg); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// scanSegmentLocked decodes records from seg.scanned onward, extending the
// valid prefix one complete record at a time. A torn or corrupt tail stops
// the scan — scanned is left at the last complete record, so the tail is
// re-examined (and a completed append picked up) on the next refresh.
func (s *Store) scanSegmentLocked(name string, seg *segState) error {
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close() //nolint:errcheck
	if _, err := f.Seek(seg.scanned, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	buf, err := io.ReadAll(f)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	off := seg.scanned
	seg.torn = false
	for len(buf) > 0 {
		rec, n, err := decodeRecord(buf)
		if err != nil {
			seg.torn = true // torn or corrupt: serve the valid prefix only
			break
		}
		if _, dup := s.idx[rec.ID]; !dup {
			s.idx[rec.ID] = loc{file: name, off: off, n: n}
		}
		off += int64(n)
		buf = buf[n:]
	}
	seg.scanned = off
	return nil
}

// readRecordLocked reads one indexed record back from disk and re-verifies
// its checksum, so a served record is always byte-authentic.
func (s *Store) readRecordLocked(l loc) (Record, error) {
	f, err := os.Open(filepath.Join(s.dir, l.file))
	if err != nil {
		return Record{}, err
	}
	defer f.Close() //nolint:errcheck
	buf := make([]byte, l.n)
	if _, err := io.ReadFull(io.NewSectionReader(f, l.off, int64(l.n)), buf); err != nil {
		return Record{}, err
	}
	rec, _, err := decodeRecord(buf)
	return rec, err
}

// validateID keeps ids sane as filenames (claims) and index keys: lowercase
// hex, 8–128 chars — exactly what the service's sha256-derived ids look
// like.
func validateID(id string) error {
	if len(id) < 8 || len(id) > maxIDLen {
		return fmt.Errorf("store: id length %d outside [8, %d]", len(id), maxIDLen)
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: id %q is not lowercase hex", id)
		}
	}
	return nil
}

// writeFileAtomic writes data to path crash-safely: temp file in the same
// directory, fsync, rename, fsync the directory.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) //nolint:errcheck // no-op after a clean rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close() //nolint:errcheck
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close() //nolint:errcheck
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so entry creations/renames are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() //nolint:errcheck
	return d.Sync()
}
