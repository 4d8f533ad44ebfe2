package service

// The scale-out satellite: two Server replicas share one store directory
// with no coordination beyond the store's claim files. The tests here are
// accounting proofs, not smoke tests — client-observed tallies, each
// replica's ledger, the /metrics counters, and the store's hit/miss
// counters must reconcile exactly, with no "approximately consistent"
// escape hatch.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quetzal/internal/experiments"
	"quetzal/internal/metrics"
	"quetzal/internal/store"
)

// replica is one quetzald instance bound to a shared store.
type replica struct {
	srv  *Server
	ts   *httptest.Server
	sims atomic.Int64 // stub simulator invocations — the costly thing replicas share
}

// newReplica builds a server whose stub counts real simulations and runs
// slowly enough (delay) that cross-replica races actually happen.
func newReplica(t *testing.T, dir string, delay time.Duration, cfg Config) *replica {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	r := &replica{}
	cfg.Store = st
	if cfg.Run == nil {
		cfg.Run = func(ctx context.Context, key experiments.RunKey) (metrics.Results, error) {
			r.sims.Add(1)
			if delay > 0 {
				select {
				case <-time.After(delay):
				case <-ctx.Done():
					return metrics.Results{}, ctx.Err()
				}
			}
			return stubResults(key), nil
		}
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	r.srv = New(cfg)
	r.ts = httptest.NewServer(r.srv.Handler())
	t.Cleanup(r.ts.Close)
	return r
}

// metricValue scrapes one counter/gauge out of a /metrics body.
func metricValue(t *testing.T, body, name string) int64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (-?\d+(?:\.\d+)?)$`).FindStringSubmatch(body)
	if m == nil {
		return 0
	}
	f, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s = %q: %v", name, m[1], err)
	}
	return int64(f)
}

// reconcile asserts the exact accounting identity for one replica at
// quiescence: pool executions = local simulations + store hits, and the
// /metrics scrape agrees with both.
func reconcile(t *testing.T, name string, r *replica) (sims, hits int64) {
	t.Helper()
	_, body := get(t, r.ts, "/metrics")
	hits = r.srv.mStoreHits.Value()
	misses := r.srv.mStoreMisses.Value()
	sims = r.sims.Load()
	executed := int64(r.srv.Ledger().Executed)

	if sims != misses {
		t.Errorf("%s: stub simulations %d != store misses %d", name, sims, misses)
	}
	if executed != sims+hits {
		t.Errorf("%s: pool executions %d != simulations %d + store hits %d", name, executed, sims, hits)
	}
	for metric, want := range map[string]int64{
		"quetzald_store_hits_total":    hits,
		"quetzald_store_misses_total":  misses,
		"quetzald_runs_executed_total": executed,
	} {
		if got := metricValue(t, body, metric); got != want {
			t.Errorf("%s: /metrics %s = %d, counter says %d", name, metric, got, want)
		}
	}
	return sims, hits
}

// TestColdWarmReplicaAB is the A/B half of the satellite: replica A runs a
// key set cold, replica B runs the identical set against the same store
// directory, and B's simulation count is exactly zero — every one of its
// runs is a cross-replica store hit.
func TestColdWarmReplicaAB(t *testing.T) {
	dir := t.TempDir()
	a := newReplica(t, dir, 0, Config{})
	b := newReplica(t, dir, 0, Config{})

	const keys = 12
	for i := 0; i < keys; i++ {
		body := fmt.Sprintf(`{"system":"qz","env":"crowded","events":%d}`, i+1)
		if resp, out := postJSON(t, a.ts, "/v1/run", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("cold run %d: %d %s", i, resp.StatusCode, out)
		}
	}
	simsA, hitsA := reconcile(t, "A", a)
	if simsA != keys || hitsA != 0 {
		t.Fatalf("cold replica: sims=%d hits=%d, want %d/0", simsA, hitsA, keys)
	}
	if puts := a.srv.mStorePuts.Value(); puts != keys {
		t.Fatalf("cold replica published %d records, want %d", puts, keys)
	}

	// Warm pass on the second replica: same keys, different process.
	for i := 0; i < keys; i++ {
		body := fmt.Sprintf(`{"system":"qz","env":"crowded","events":%d}`, i+1)
		resp, out := postJSON(t, b.ts, "/v1/run", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm run %d: %d %s", i, resp.StatusCode, out)
		}
		var rr runResponse
		if err := json.Unmarshal([]byte(out), &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Results == nil || rr.Results.JobsCompleted != 1+(i+1) {
			t.Fatalf("warm run %d served wrong results: %+v", i, rr.Results)
		}
	}
	simsB, hitsB := reconcile(t, "B", b)
	if simsB != 0 {
		t.Fatalf("warm replica simulated %d times, want 0 (store sharing broken)", simsB)
	}
	if hitsB != keys {
		t.Fatalf("warm replica store hits = %d, want %d", hitsB, keys)
	}
}

// TestTwoReplicaRaceReconciles is the race half, meant for -race runs: both
// replicas take concurrent overlapping traffic against one store. At
// quiescence the client tallies, both ledgers, both /metrics scrapes and
// the store counters must balance exactly — and the fleet-wide simulation
// count must equal the number of distinct keys, because the claim protocol
// makes duplicate execution across replicas impossible while both are
// willing to wait out a claim.
func TestTwoReplicaRaceReconciles(t *testing.T) {
	dir := t.TempDir()
	// Claim wait far above stub latency: losers always outwait winners.
	cfg := Config{StoreClaimWait: 30 * time.Second, MaxQueue: 256}
	a := newReplica(t, dir, 3*time.Millisecond, cfg)
	b := newReplica(t, dir, 3*time.Millisecond, cfg)
	replicas := []*replica{a, b}

	const distinct = 24
	const clients = 6
	const perClient = 16
	var ok200 atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				r := replicas[(c+i)%2]
				body := fmt.Sprintf(`{"system":"qz","env":"crowded","events":%d}`, (c*perClient+i)%distinct+1)
				resp, err := http.Post(r.ts.URL+"/v1/run", "application/json",
					strings.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					ok200.Add(1)
				} else {
					t.Errorf("client %d got %d", c, resp.StatusCode)
				}
			}
		}(c)
	}
	wg.Wait()

	if got := ok200.Load(); got != clients*perClient {
		t.Fatalf("client tally: %d OK responses, want %d", got, clients*perClient)
	}
	simsA, _ := reconcile(t, "A", a)
	simsB, _ := reconcile(t, "B", b)
	if simsA+simsB != distinct {
		t.Fatalf("fleet simulated %d+%d times for %d distinct keys (cross-replica dedup broken)",
			simsA, simsB, distinct)
	}

	// Every id is now durable: both replicas serve every run id, including
	// ids only the *other* replica computed (the store fallback).
	for i := 0; i < distinct; i++ {
		key, err := experiments.KeySpec{System: "qz", Env: "crowded", Events: i + 1}.RunKey()
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]*replica{"A": a, "B": b} {
			resp, body := get(t, r.ts, "/v1/runs/"+runID(key))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: GET run %d = %d %s", name, i, resp.StatusCode, body)
			}
		}
	}
}

// TestClaimWinnerRechecksStore pins the lookup→claim interleaving closed:
// replica A misses the store, and before A takes the claim replica B runs
// the same key to completion (publishes, releases its claim). A then wins
// the claim, and must serve B's record instead of simulating the key again.
func TestClaimWinnerRechecksStore(t *testing.T) {
	dir := t.TempDir()
	a := newReplica(t, dir, 0, Config{})
	b := newReplica(t, dir, 0, Config{})
	const body = `{"system":"qz","env":"crowded","events":7}`
	var hooked atomic.Int64
	a.srv.beforeClaim = func(string) {
		hooked.Add(1)
		postJSONQuiet(b.ts, "/v1/run", body)
	}

	resp, out := postJSON(t, a.ts, "/v1/run", body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(out, StatusDone) {
		t.Fatalf("run on A = %d %s", resp.StatusCode, out)
	}
	if n := hooked.Load(); n != 1 {
		t.Fatalf("hook ran %d times, want 1", n)
	}
	if n := b.sims.Load(); n != 1 {
		t.Fatalf("B simulated %d times inside the hook, want 1", n)
	}
	if n := a.sims.Load(); n != 0 {
		t.Fatalf("A simulated a key B had already published (%d runs)", n)
	}
	simsA, hitsA := reconcile(t, "A", a)
	if simsA != 0 || hitsA != 1 {
		t.Fatalf("A: sims=%d store hits=%d, want 0/1", simsA, hitsA)
	}
	reconcile(t, "B", b)
	if puts := a.srv.mStorePuts.Value(); puts != 0 {
		t.Fatalf("A published %d records, want 0", puts)
	}
}

// TestWarmRestartServesFromDisk pins the recovery story end to end: compute
// on one server, tear the whole process-equivalent down (Close the store,
// drop the server), open a brand-new replica on the directory, and demand
// both the run id lookup and a re-run come back without simulating.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	a := newReplica(t, dir, 0, Config{})
	_, out := postJSON(t, a.ts, "/v1/run", `{"system":"qz","env":"crowded","events":7}`)
	var first runResponse
	if err := json.Unmarshal([]byte(out), &first); err != nil {
		t.Fatal(err)
	}
	if err := a.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.ts.Close()

	b := newReplica(t, dir, 0, Config{})
	// The restarted replica has never seen this id, yet serves it from disk.
	resp, body := get(t, b.ts, "/v1/runs/"+first.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart lookup = %d %s", resp.StatusCode, body)
	}
	var got runResponse
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Stored || got.Results == nil || *got.Results != *first.Results {
		t.Fatalf("restart lookup diverged: %+v vs %+v", got, first)
	}
	// A fresh POST for the same key is a store hit, not a simulation.
	if resp, _ := postJSON(t, b.ts, "/v1/run", `{"system":"qz","env":"crowded","events":7}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("restart rerun = %d", resp.StatusCode)
	}
	if sims := b.sims.Load(); sims != 0 {
		t.Fatalf("restarted replica simulated %d times, want 0", sims)
	}
}
