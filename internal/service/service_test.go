package service

// The service was specified by these tables before the handlers existed:
// every route, the shedding policy, coalescing, panic isolation and drain
// are pinned here against stub run functions, plus one end-to-end test
// against the real simulator so the wire format provably carries real
// results.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quetzal/internal/experiments"
	"quetzal/internal/metrics"
	"quetzal/internal/sim"
)

// stubResults fabricates a distinguishable result for a key.
func stubResults(key experiments.RunKey) metrics.Results {
	return metrics.Results{
		System:        key.System,
		Environment:   key.Env.Name,
		JobsCompleted: 1 + key.NumEvents,
	}
}

// instantRun is the fast default stub.
func instantRun(_ context.Context, key experiments.RunKey) (metrics.Results, error) {
	return stubResults(key), nil
}

// newTestServer builds a server + httptest frontend around a stub RunFunc.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Run == nil {
		cfg.Run = instantRun
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts body to path and returns the response with its body read.
func postJSON(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, string(b)
}

// postJSONQuiet is postJSON without t, for goroutines that only need the
// request issued; failures surface through the assertions on shared state.
func postJSONQuiet(ts *httptest.Server, path, body string) {
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, string(b)
}

func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts, "/v1/run", `{"system":"qz","env":"crowded","events":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, body)
	}
	var out runResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if out.ID == "" || out.Status != StatusDone || out.Results == nil {
		t.Fatalf("bad response: %+v", out)
	}
	if out.Results.JobsCompleted != 8 || out.Results.System != "qz" {
		t.Fatalf("results did not round-trip: %+v", out.Results)
	}
	if out.Key != "qz/crowded events=7" {
		t.Fatalf("key = %q", out.Key)
	}
}

func TestRunValidationTable(t *testing.T) {
	ran := 0
	s, ts := newTestServer(t, Config{Run: func(_ context.Context, key experiments.RunKey) (metrics.Results, error) {
		ran++
		return stubResults(key), nil
	}})
	cases := []struct {
		name     string
		body     string
		wantCode int
		wantErr  string
	}{
		{"empty body", ``, http.StatusBadRequest, "bad request"},
		{"not json", `hello`, http.StatusBadRequest, "bad request"},
		{"truncated", `{"system":"qz","env":`, http.StatusBadRequest, "bad request"},
		{"wrong type", `{"system":42,"env":"crowded"}`, http.StatusBadRequest, "bad request"},
		{"unknown field", `{"system":"qz","env":"crowded","cheat":1}`, http.StatusBadRequest, "cheat"},
		{"trailing garbage", `{"system":"qz","env":"crowded"}{"again":true}`, http.StatusBadRequest, "trailing"},
		{"nan literal", `{"system":"qz","env":"crowded","jitter":NaN}`, http.StatusBadRequest, "bad request"},
		{"inf via exponent", `{"system":"qz","env":"crowded","jitter":1e999}`, http.StatusBadRequest, "bad request"},
		{"unknown system", `{"system":"hal9000","env":"crowded"}`, http.StatusBadRequest, "unknown system"},
		{"unknown env", `{"system":"qz","env":"mars"}`, http.StatusBadRequest, "max_duration"},
		{"absurd duration", `{"system":"qz","env":"x","max_duration":1e11}`, http.StatusBadRequest, "max_duration"},
		{"events too big", `{"system":"qz","env":"crowded","events":999999}`, http.StatusBadRequest, "events"},
		{"negative events", `{"system":"qz","env":"crowded","events":-1}`, http.StatusBadRequest, "events"},
		{"bad engine", `{"system":"qz","env":"crowded","engine":"warp"}`, http.StatusBadRequest, "engine"},
		{"array body", `[1,2,3]`, http.StatusBadRequest, "bad request"},
		{"null body", `null`, http.StatusBadRequest, "missing system"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := ran
			resp, body := postJSON(t, ts, "/v1/run", tc.body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status = %d, want %d; body = %s", resp.StatusCode, tc.wantCode, body)
			}
			if !strings.Contains(body, tc.wantErr) {
				t.Fatalf("body %q missing %q", body, tc.wantErr)
			}
			if ran != before {
				t.Fatalf("invalid request spawned a run")
			}
		})
	}
	if n := s.Ledger().Executed; n != 0 {
		t.Fatalf("ledger shows %d executions after invalid requests only", n)
	}
}

func TestRunMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run status = %d, want 405", resp.StatusCode)
	}
}

func TestRunBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 128})
	big := `{"system":"qz","env":"crowded","profile":"` + strings.Repeat("a", 200) + `"}`
	resp, body := postJSON(t, ts, "/v1/run", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413; body = %s", resp.StatusCode, body)
	}
}

func TestRunTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{
		RunTimeout: 50 * time.Millisecond,
		Run: func(ctx context.Context, key experiments.RunKey) (metrics.Results, error) {
			<-ctx.Done()
			return metrics.Results{}, ctx.Err()
		},
	})
	start := time.Now()
	resp, body := postJSON(t, ts, "/v1/run", `{"system":"qz","env":"crowded"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body = %s", resp.StatusCode, body)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("timeout took %v; deadline not enforced", took)
	}
	// The server must still serve after a timed-out run.
	resp2, _ := get(t, ts, "/healthz")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthz after timeout = %d", resp2.StatusCode)
	}
}

func TestRequestTimeoutMsShortensOnly(t *testing.T) {
	var got time.Duration
	var mu sync.Mutex
	_, ts := newTestServer(t, Config{
		RunTimeout: time.Second,
		Run: func(ctx context.Context, key experiments.RunKey) (metrics.Results, error) {
			if dl, ok := ctx.Deadline(); ok {
				mu.Lock()
				got = time.Until(dl)
				mu.Unlock()
			}
			return stubResults(key), nil
		},
	})
	// timeout_ms larger than the server budget must be clamped down.
	postJSON(t, ts, "/v1/run", `{"system":"qz","env":"crowded","timeout_ms":3600000}`)
	mu.Lock()
	d := got
	mu.Unlock()
	if d > time.Second {
		t.Fatalf("request extended the deadline to %v; server budget is 1s", d)
	}
}

func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Run: func(_ context.Context, key experiments.RunKey) (metrics.Results, error) {
			if key.System == "cn" {
				panic("synthetic failure")
			}
			return stubResults(key), nil
		},
	})
	resp, body := postJSON(t, ts, "/v1/run", `{"system":"cn","env":"crowded"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking run status = %d, want 500; body = %s", resp.StatusCode, body)
	}
	if got := s.reg.Counter("quetzald_panics_total").Value(); got != 1 {
		t.Fatalf("quetzald_panics_total = %d, want 1", got)
	}
	// The server survives and serves unrelated work.
	resp2, body2 := postJSON(t, ts, "/v1/run", `{"system":"qz","env":"crowded"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-panic run status = %d; body = %s", resp2.StatusCode, body2)
	}
}

func TestGetRunLifecycle(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	_, ts := newTestServer(t, Config{
		Run: func(_ context.Context, key experiments.RunKey) (metrics.Results, error) {
			started <- struct{}{}
			<-gate
			return stubResults(key), nil
		},
	})
	// Unknown id → 404.
	resp, _ := get(t, ts, "/v1/runs/deadbeef")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status = %d, want 404", resp.StatusCode)
	}

	key, err := experiments.KeySpec{System: "qz", Env: "crowded"}.RunKey()
	if err != nil {
		t.Fatal(err)
	}
	id := runID(key)

	done := make(chan string, 1)
	go func() {
		_, body := postJSON(t, ts, "/v1/run", `{"system":"qz","env":"crowded"}`)
		done <- body
	}()
	<-started
	// In flight → 202 running.
	resp, body := get(t, ts, "/v1/runs/"+id)
	if resp.StatusCode != http.StatusAccepted || !strings.Contains(body, StatusRunning) {
		t.Fatalf("in-flight lookup = %d %s, want 202 running", resp.StatusCode, body)
	}
	close(gate)
	<-done
	// Finished → 200 done with results, id matches the POST's.
	resp, body = get(t, ts, "/v1/runs/"+id)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, StatusDone) {
		t.Fatalf("finished lookup = %d %s", resp.StatusCode, body)
	}
	var out runResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil || out.Results == nil {
		t.Fatalf("finished lookup body: %v / %s", err, body)
	}
}

func TestRecordEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxRecords: 3})
	const firstBody = `{"system":"qz","env":"crowded","events":1}`
	var firstID string
	for i := 0; i < 5; i++ {
		_, body := postJSON(t, ts, "/v1/run",
			fmt.Sprintf(`{"system":"qz","env":"crowded","events":%d}`, i+1))
		if firstID == "" {
			var out runResponse
			if err := json.Unmarshal([]byte(body), &out); err != nil {
				t.Fatal(err)
			}
			firstID = out.ID
		}
	}
	// Eviction frees the result as well as the index entry: the pool no
	// longer memoizes the first key, so re-posting it executes it again.
	firstKey, err := experiments.KeySpec{System: "qz", Env: "crowded", Events: 1}.RunKey()
	if err != nil {
		t.Fatal(err)
	}
	if runID(firstKey) != firstID {
		t.Fatalf("first key id %s, POST returned %s", runID(firstKey), firstID)
	}
	if s.pool.Known(firstKey) {
		t.Fatal("evicted key's result is still memoized in the pool")
	}
	if resp, _ := get(t, ts, "/v1/runs/"+firstID); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted record still served: %d", resp.StatusCode)
	}
	s.mu.Lock()
	n := len(s.records)
	s.mu.Unlock()
	if n != 3 {
		t.Fatalf("record index holds %d entries, want 3", n)
	}
	if resp, body := postJSON(t, ts, "/v1/run", firstBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-POST of evicted key = %d %s", resp.StatusCode, body)
	}
	if l := s.Ledger(); l.Executed != 6 || l.CacheHits != 0 {
		t.Fatalf("ledger executed=%d cache hits=%d, want 6/0 (evicted key must re-execute)",
			l.Executed, l.CacheHits)
	}
}

func TestSweepEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"runs":[
		{"system":"qz","env":"crowded"},
		{"system":"na","env":"crowded"},
		{"system":"qz","env":"crowded"}
	]}`
	resp, out := postJSON(t, ts, "/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body = %s", resp.StatusCode, out)
	}
	var sr sweepResponse
	if err := json.Unmarshal([]byte(out), &sr); err != nil {
		t.Fatalf("decode: %v\n%s", err, out)
	}
	if sr.Count != 3 || sr.Failed != 0 || len(sr.Entries) != 3 {
		t.Fatalf("sweep response: %+v", sr)
	}
	// Entries are in request order and the duplicate shares an id.
	if sr.Entries[0].ID != sr.Entries[2].ID || sr.Entries[0].ID == sr.Entries[1].ID {
		t.Fatalf("id sharing wrong: %q %q %q", sr.Entries[0].ID, sr.Entries[1].ID, sr.Entries[2].ID)
	}
	if sr.Entries[1].Results.System != "na" {
		t.Fatalf("entry order broken: %+v", sr.Entries[1])
	}
	// The duplicate coalesced: two executions for three requested runs.
	if l := s.Ledger(); l.Executed != 2 {
		t.Fatalf("executed = %d, want 2", l.Executed)
	}
}

// TestMultiRunValidation pins the 400 surface shared by the three
// multi-run routes: every case runs against every route, answers before
// any stream bytes, and spawns no run. MaxQueue bounds each route's key
// limit, so MaxQueue: 2 makes three runs too many.
func TestMultiRunValidation(t *testing.T) {
	var ran atomic.Int64
	_, ts := newTestServer(t, Config{
		MaxQueue: 2,
		Run: func(_ context.Context, key experiments.RunKey) (metrics.Results, error) {
			ran.Add(1)
			return stubResults(key), nil
		},
	})
	routes := []struct{ name, path, limit string }{
		{"sweep", "/v1/sweep", "per-sweep limit 2"},
		{"sweep_stream", "/v1/sweep/stream", "per-sweep limit 2"},
		{"batch", "/v1/batch", "per-batch limit 2"},
	}
	// An empty wantErr stands for the route's own limit error.
	cases := []struct{ name, body, wantErr string }{
		{"empty runs", `{"runs":[]}`, "runs is empty"},
		{"missing runs", `{}`, "runs is empty"},
		{"too many", `{"runs":[{"system":"qz","env":"crowded"},{"system":"na","env":"crowded"},{"system":"cn","env":"crowded"}]}`, ""},
		{"bad entry", `{"runs":[{"system":"nope","env":"crowded"}]}`, "runs[0]"},
		{"bad entry indexed", `{"runs":[{"system":"qz","env":"crowded"},{"system":"nope","env":"crowded"}]}`, "runs[1]"},
		{"unknown field", `{"runs":[{"system":"qz","env":"crowded"}],"cheat":1}`, "cheat"},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			for _, tc := range cases {
				want := tc.wantErr
				if want == "" {
					want = rt.limit
				}
				t.Run(tc.name, func(t *testing.T) {
					resp, body := postJSON(t, ts, rt.path, tc.body)
					if resp.StatusCode != http.StatusBadRequest {
						t.Fatalf("status = %d, want 400 before any stream bytes; body = %s", resp.StatusCode, body)
					}
					if !strings.Contains(body, want) {
						t.Fatalf("body %q missing %q", body, want)
					}
				})
			}
		})
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("invalid requests spawned %d runs", n)
	}
}

func TestCoalescingConcurrentDuplicates(t *testing.T) {
	gate := make(chan struct{})
	arrived := make(chan struct{}, 16)
	s, ts := newTestServer(t, Config{
		Workers: 4,
		Run: func(_ context.Context, key experiments.RunKey) (metrics.Results, error) {
			arrived <- struct{}{}
			<-gate
			return stubResults(key), nil
		},
	})
	const dupes = 8
	var wg sync.WaitGroup
	codes := make([]int, dupes)
	for i := 0; i < dupes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts, "/v1/run", `{"system":"qz","env":"crowded","seed":99}`)
			codes[i] = resp.StatusCode
		}(i)
	}
	<-arrived // exactly one execution started
	close(gate)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("duplicate %d got status %d", i, c)
		}
	}
	l := s.Ledger()
	if l.Executed != 1 {
		t.Fatalf("executed = %d, want 1 (coalescing broken)", l.Executed)
	}
	if l.CacheHits != dupes-1 {
		t.Fatalf("cache hits = %d, want %d", l.CacheHits, dupes-1)
	}
	select {
	case <-arrived:
		t.Fatal("a second execution started for identical requests")
	default:
	}
}

func TestSheddingQueueCap(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	arrived := make(chan struct{}, 4)
	s, ts := newTestServer(t, Config{
		Workers:  1,
		MaxQueue: 2,
		Run: func(_ context.Context, key experiments.RunKey) (metrics.Results, error) {
			arrived <- struct{}{}
			<-gate
			return stubResults(key), nil
		},
	})
	// Fill the queue: one running + one admitted-waiting.
	resps := make(chan int, 2)
	for i := 0; i < 2; i++ {
		body := fmt.Sprintf(`{"system":"qz","env":"crowded","seed":%d}`, i+1)
		go func(body string) {
			resp, _ := postJSON(t, ts, "/v1/run", body)
			resps <- resp.StatusCode
		}(body)
	}
	<-arrived // first is running; second is queued or about to be
	waitUntil(t, "queue to fill", func() bool { return s.adm.snapshot().Queued == 2 })

	// Third distinct run must shed with 429 + Retry-After.
	resp, body := postJSON(t, ts, "/v1/run", `{"system":"qz","env":"crowded","seed":3}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body = %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	if !strings.Contains(body, "saturated") {
		t.Fatalf("shed body = %s", body)
	}
	// A duplicate of the running key coalesces instead of shedding.
	dupDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts, "/v1/run", `{"system":"qz","env":"crowded","seed":1}`)
		dupDone <- resp.StatusCode
	}()
	gate <- struct{}{} // release first run
	gate <- struct{}{} // release second run
	for i := 0; i < 2; i++ {
		if code := <-resps; code != http.StatusOK {
			t.Fatalf("admitted run %d got %d", i, code)
		}
	}
	<-arrived // second run executed
	if code := <-dupDone; code != http.StatusOK {
		t.Fatalf("duplicate under saturation got %d, want 200", code)
	}
	if got := s.reg.Counter("quetzald_shed_total").Value(); got != 1 {
		t.Fatalf("quetzald_shed_total = %d, want 1", got)
	}
}

// TestSheddingLittlesLaw pins the predictive path: once the service-time
// EWMA says the queue cannot be cleared before the deadline, requests shed
// even though the queue cap itself has room.
func TestSheddingLittlesLaw(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	arrived := make(chan struct{}, 2)
	s, ts := newTestServer(t, Config{
		Workers:  1,
		MaxQueue: 100, // roomy: only the residence prediction can shed
		Run: func(_ context.Context, key experiments.RunKey) (metrics.Results, error) {
			arrived <- struct{}{}
			<-gate
			return stubResults(key), nil
		},
	})
	// Teach the gate that runs take ~2s each.
	s.adm.observe(2 * time.Second)

	go postJSONQuiet(ts, "/v1/run", `{"system":"qz","env":"crowded","seed":1}`)
	<-arrived
	waitUntil(t, "first run admitted", func() bool { return s.adm.snapshot().Queued == 1 })

	// Predicted residence for a newcomer: 2 turns × 2s = 4s > 100ms budget.
	resp, body := postJSON(t, ts, "/v1/run",
		`{"system":"qz","env":"crowded","seed":2,"timeout_ms":100}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body = %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "predicted queue residence") {
		t.Fatalf("shed body = %s", body)
	}
	gate <- struct{}{}
}

func TestHealthzAndDrain(t *testing.T) {
	gate := make(chan struct{})
	arrived := make(chan struct{}, 1)
	s, ts := newTestServer(t, Config{
		Run: func(_ context.Context, key experiments.RunKey) (metrics.Results, error) {
			arrived <- struct{}{}
			<-gate
			return stubResults(key), nil
		},
	})
	if resp, body := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %s", resp.StatusCode, body)
	}

	// Start a run, then drain while it is in flight.
	done := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts, "/v1/run", `{"system":"qz","env":"crowded"}`)
		done <- resp.StatusCode
	}()
	<-arrived

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitUntil(t, "draining flag", s.Draining)

	// New work is refused while draining...
	if resp, _ := postJSON(t, ts, "/v1/run", `{"system":"na","env":"crowded"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining run status = %d, want 503", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	// ...but metrics stay reachable for the final scrape.
	if resp, _ := get(t, ts, "/metrics"); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics during drain = %d", resp.StatusCode)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a run still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight run finished with %d, want 200", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// After a clean drain the ledger and metrics agree.
	l := s.Ledger()
	if exec := s.reg.Counter("quetzald_runs_executed_total").Value(); exec != int64(l.Executed) {
		t.Fatalf("metrics executed %d != ledger %d", exec, l.Executed)
	}
}

func TestDrainTimeout(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	arrived := make(chan struct{}, 1)
	s, ts := newTestServer(t, Config{
		Run: func(_ context.Context, key experiments.RunKey) (metrics.Results, error) {
			arrived <- struct{}{}
			<-gate
			return stubResults(key), nil
		},
	})
	go postJSONQuiet(ts, "/v1/run", `{"system":"qz","env":"crowded"}`)
	<-arrived
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain with stuck run = %v, want DeadlineExceeded", err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts, "/v1/run", `{"system":"qz","env":"crowded"}`)
	postJSON(t, ts, "/v1/run", `{"system":"qz","env":"crowded"}`) // memo hit
	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"quetzald_runs_executed_total 1",
		"quetzald_run_cache_hits_total 1",
		"quetzald_http_requests_total_run 2",
		"quetzald_http_responses_total_run_2xx 2",
		"quetzald_queue_depth 0",
		"quetzald_request_seconds_run_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestRealSimulatorEndToEnd runs one genuine simulation through the wire
// and checks the response equals a direct experiments execution.
func TestRealSimulatorEndToEnd(t *testing.T) {
	setup := experiments.DefaultSetup()
	setup.NumEvents = 40
	_, ts := newTestServer(t, Config{Setup: setup, Run: setup.Execute})

	resp, body := postJSON(t, ts, "/v1/run", `{"system":"na","env":"less-crowded","engine":"event"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body = %s", resp.StatusCode, body)
	}
	var out runResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	key := experiments.RunKey{System: experiments.SysNoAdapt, Env: experiments.LessCrowded, Engine: sim.EventDriven}
	want, err := setup.Execute(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if *out.Results != want {
		t.Fatalf("service results differ from direct execution:\n got %+v\nwant %+v", *out.Results, want)
	}
}

// waitUntil polls cond until it holds or the test deadline approaches.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
