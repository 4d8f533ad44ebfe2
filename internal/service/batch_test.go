package service

// POST /v1/batch contract tests: one admission decision for the whole
// request, an immediate 202 with per-key status, background execution that
// Drain waits for, and duplicate keys that cost nothing.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"quetzal/internal/experiments"
	"quetzal/internal/metrics"
)

func decodeBatch(t *testing.T, body string) batchResponse {
	t.Helper()
	var out batchResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("decode batch response: %v\n%s", err, body)
	}
	return out
}

func TestBatchEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"runs":[
		{"system":"qz","env":"crowded","events":1},
		{"system":"na","env":"crowded","events":2},
		{"system":"qz","env":"crowded","events":1}
	]}`
	resp, raw := postJSON(t, ts, "/v1/batch", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202; body = %s", resp.StatusCode, raw)
	}
	out := decodeBatch(t, raw)
	if out.Count != 3 || out.Accepted != 2 || out.Coalesced != 1 {
		t.Fatalf("batch accounting: %+v", out)
	}
	if out.Entries[0].ID != out.Entries[2].ID {
		t.Fatalf("duplicate keys got different ids: %q %q", out.Entries[0].ID, out.Entries[2].ID)
	}
	if !out.Entries[2].Coalesced || out.Entries[0].Coalesced {
		t.Fatalf("coalesced flags wrong: %+v", out.Entries)
	}

	// Every id resolves to done with results once the background runs land.
	for _, e := range out.Entries {
		e := e
		waitUntil(t, "batch run "+e.ID, func() bool {
			resp, body := get(t, ts, "/v1/runs/"+e.ID)
			return resp.StatusCode == http.StatusOK && strings.Contains(body, StatusDone)
		})
	}
	if l := s.Ledger(); l.Executed != 2 {
		t.Fatalf("executed = %d, want 2 (batch duplicate ran?)", l.Executed)
	}
}

func TestBatchShedsAsOneUnit(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	arrived := make(chan struct{}, 8)
	s, ts := newTestServer(t, Config{
		Workers:  1,
		MaxQueue: 2,
		Run: func(ctx context.Context, key experiments.RunKey) (metrics.Results, error) {
			arrived <- struct{}{}
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return stubResults(key), nil
		},
	})
	// Saturate: one running plus one queued.
	for i := 0; i < 2; i++ {
		go postJSONQuiet(ts, "/v1/run", fmt.Sprintf(`{"system":"qz","env":"crowded","seed":%d}`, i+1))
	}
	<-arrived
	waitUntil(t, "queue to fill", func() bool { return s.adm.snapshot().Queued == 2 })

	// A batch with two fresh keys cannot be half-admitted: the whole request
	// sheds with 429 + Retry-After and no entry executes.
	resp, body := postJSON(t, ts, "/v1/batch",
		`{"runs":[{"system":"na","env":"crowded"},{"system":"cn","env":"crowded"}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body = %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	// A batch made solely of the already-running key coalesces for free even
	// at full saturation.
	resp, raw := postJSON(t, ts, "/v1/batch", `{"runs":[{"system":"qz","env":"crowded","seed":1}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("coalescing batch status = %d; body = %s", resp.StatusCode, raw)
	}
	out := decodeBatch(t, raw)
	if out.Coalesced != 1 || out.Accepted != 0 || out.Entries[0].Status != StatusRunning {
		t.Fatalf("coalescing batch: %+v", out)
	}
}

// TestBatchDrainWaitsForBackgroundRuns pins the lifecycle: Drain must not
// return while detached batch executions are still running, and after a
// clean drain their records and the ledger agree.
func TestBatchDrainWaitsForBackgroundRuns(t *testing.T) {
	gate := make(chan struct{})
	arrived := make(chan struct{}, 1)
	var finished atomic.Int64
	s, ts := newTestServer(t, Config{
		Run: func(_ context.Context, key experiments.RunKey) (metrics.Results, error) {
			arrived <- struct{}{}
			<-gate
			finished.Add(1)
			return stubResults(key), nil
		},
	})
	resp, raw := postJSON(t, ts, "/v1/batch", `{"runs":[{"system":"qz","env":"crowded"}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	out := decodeBatch(t, raw)
	<-arrived // the background run is live; the 202 has long been sent

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a batch run in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if finished.Load() != 1 {
		t.Fatalf("background run did not finish before Drain returned")
	}
	// The record is durable in the index even though the submitter never
	// polled: a post-drain GET (metrics-style introspection) can read it.
	rec, ok := s.lookup(out.Entries[0].ID)
	if !ok || rec.Status != StatusDone {
		t.Fatalf("batch record after drain: ok=%v rec=%+v", ok, rec)
	}
}

// TestBatchAbandonedOnDrainTimeout: if Drain's context expires first, the
// base context is cancelled and the stuck background run is abandoned
// without wedging future work.
func TestBatchAbandonedOnDrainTimeout(t *testing.T) {
	arrived := make(chan struct{}, 1)
	released := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Run: func(ctx context.Context, key experiments.RunKey) (metrics.Results, error) {
			arrived <- struct{}{}
			<-ctx.Done() // honours cancellation, but nothing else
			close(released)
			return metrics.Results{}, ctx.Err()
		},
	})
	postJSON(t, ts, "/v1/batch", `{"runs":[{"system":"qz","env":"crowded"}]}`)
	<-arrived

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	// Drain's exit cancelled the base context, which released the run.
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("base context cancellation never reached the background run")
	}
}
