package service

// POST /v1/batch: submit many runs in one request, get one admission
// decision and per-key status back immediately. Unlike /v1/sweep (which
// holds the connection until every run finishes), a batch is asynchronous:
// the response is 202 with one id per key, executions proceed in the
// background under the server's base context, and callers poll
// GET /v1/runs/{id} (or just resubmit — the single-flight pool and the
// shared store make duplicates free). It suits open-loop clients, which
// cannot afford a connection per in-flight run. The decode and admission
// steps are the ones /v1/sweep uses (handlers.go).

import (
	"context"
	"net/http"

	"quetzal/internal/experiments"
)

// batchEntry is the immediate status of one submitted key.
type batchEntry struct {
	ID  string `json:"id"`
	Key string `json:"key"`
	// Status is the record state at submission time: "accepted" for a key
	// this request started, otherwise the live record state (running, done,
	// failed) the key already had.
	Status string `json:"status"`
	// Coalesced marks keys that cost this batch nothing: already memoized,
	// in flight, or a duplicate of an earlier key in the same batch.
	Coalesced bool `json:"coalesced,omitempty"`
}

// batchResponse is the body of a 202 from POST /v1/batch.
type batchResponse struct {
	Count     int          `json:"count"`
	Accepted  int          `json:"accepted"`
	Coalesced int          `json:"coalesced"`
	Entries   []batchEntry `json:"entries"`
}

// StatusAccepted is the batchEntry state for a key this request admitted.
const StatusAccepted = "accepted"

// handleBatch is POST /v1/batch: validate every spec, admit the distinct
// unknown keys as one unit, answer 202, execute in the background.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	keys, timeout, ok := s.decodeRuns(w, r, "batch", maxBatchKeys)
	if !ok {
		return
	}
	// One admission decision for the whole batch, with the same accounting
	// as /v1/sweep.
	fresh, ok := s.admitRuns(w, keys, timeout)
	if !ok {
		return
	}

	// Build the reply before launching anything, so "accepted" vs
	// "coalesced" reflects the decision this request actually made: the
	// first occurrence of each fresh key is the one this batch started, and
	// every other entry coalesced.
	out := batchResponse{Count: len(keys), Entries: make([]batchEntry, len(keys))}
	unclaimed := make(map[experiments.RunKey]bool, len(fresh))
	for _, k := range fresh {
		unclaimed[k] = true
	}
	for i, k := range keys {
		e := batchEntry{ID: runID(k), Key: k.String(), Status: StatusAccepted}
		if !unclaimed[k] {
			e.Coalesced = true
			out.Coalesced++
			if rec, ok := s.lookup(e.ID); ok {
				e.Status = rec.Status
			} else {
				e.Status = StatusRunning
			}
		} else {
			delete(unclaimed, k)
			out.Accepted++
			s.remember(e.ID, record{Key: k, Status: StatusRunning})
		}
		out.Entries[i] = e
	}

	// Detach execution from the request: the submitter may disconnect the
	// moment it has the ids. Each run releases its own admission slot, so
	// the queue drains as the batch progresses rather than all at once.
	for _, k := range fresh {
		s.bg.Add(1)
		go func(k experiments.RunKey) {
			defer s.bg.Done()
			defer s.adm.release(1)
			ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
			defer cancel()
			id := runID(k)
			res, err := s.pool.Do(ctx, k)
			if err != nil {
				s.remember(id, record{Key: k, Status: StatusFailed, Err: err.Error()})
				return
			}
			s.remember(id, record{Key: k, Status: StatusDone, Results: res})
		}(k)
	}
	writeJSON(w, http.StatusAccepted, out)
}
