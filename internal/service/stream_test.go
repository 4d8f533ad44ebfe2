package service

// The stream-audit satellite. The JSONL streams carry a contract — start
// first, monotonic progress, heartbeats while idle, exactly one terminal
// event — and a mid-stream disconnect must cancel the work without leaking
// a goroutine. There is no goleak dependency in this repo, so the leak
// check is the direct form: count goroutines at rest, run the scenario,
// and require the count to settle back.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"quetzal/internal/experiments"
	"quetzal/internal/metrics"
	"quetzal/internal/store"
)

// collectStream posts body and decodes every JSONL line until EOF.
func collectStream(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []streamEvent) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b := make([]byte, 512)
		n, _ := resp.Body.Read(b)
		t.Fatalf("POST %s = %d: %s", path, resp.StatusCode, b[:n])
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	var events []streamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return resp, events
}

// auditStream enforces the shared stream contract on a complete event log.
func auditStream(t *testing.T, events []streamEvent) (terminal streamEvent) {
	t.Helper()
	if len(events) == 0 || events[0].Event != "start" {
		t.Fatalf("stream did not open with start: %+v", events)
	}
	terminals := 0
	lastDone := 0
	var lastDevices int64
	for i, ev := range events {
		switch ev.Event {
		case "done", "error":
			terminals++
			terminal = ev
			if i != len(events)-1 {
				t.Fatalf("terminal event at index %d of %d: something followed it", i, len(events))
			}
		case "run":
			if ev.Done != lastDone+1 {
				t.Fatalf("run progress jumped %d -> %d", lastDone, ev.Done)
			}
			lastDone = ev.Done
			if ev.Entry == nil {
				t.Fatalf("run event without an entry: %+v", ev)
			}
		case "snapshot", "heartbeat":
			if ev.Done < lastDone || ev.DevicesDone < lastDevices {
				t.Fatalf("progress went backwards at event %d: %+v", i, ev)
			}
			lastDevices = ev.DevicesDone
		case "start":
			if i != 0 {
				t.Fatalf("second start event at index %d", i)
			}
		default:
			t.Fatalf("unknown event type %q", ev.Event)
		}
	}
	if terminals != 1 {
		t.Fatalf("stream carried %d terminal events, want exactly 1", terminals)
	}
	return terminal
}

func TestSweepStreamContract(t *testing.T) {
	_, ts := newTestServer(t, Config{
		StreamHeartbeat: 20 * time.Millisecond,
		Run: func(ctx context.Context, key experiments.RunKey) (metrics.Results, error) {
			// Stagger completions so progress arrives as distinct events and
			// the stream lives long enough to need heartbeats.
			select {
			case <-time.After(time.Duration(key.NumEvents) * 40 * time.Millisecond):
			case <-ctx.Done():
				return metrics.Results{}, ctx.Err()
			}
			return stubResults(key), nil
		},
	})
	body := `{"runs":[
		{"system":"qz","env":"crowded","events":1},
		{"system":"qz","env":"crowded","events":2},
		{"system":"qz","env":"crowded","events":4}
	]}`
	_, events := collectStream(t, ts, "/v1/sweep/stream", body)
	terminal := auditStream(t, events)
	if terminal.Event != "done" || terminal.Done != 3 || terminal.Failed != 0 {
		t.Fatalf("terminal = %+v", terminal)
	}
	runs, heartbeats := 0, 0
	for _, ev := range events {
		switch ev.Event {
		case "run":
			runs++
		case "heartbeat":
			heartbeats++
		}
	}
	if runs != 3 {
		t.Fatalf("run events = %d, want 3", runs)
	}
	// The slowest key holds the stream open for ~160ms; at a 20ms cadence
	// several heartbeats must have landed (>=3 leaves slack for CI jitter).
	if heartbeats < 3 {
		t.Fatalf("heartbeats = %d, want >= 3 over a ~160ms stream at 20ms cadence", heartbeats)
	}
}

func TestSweepStreamReportsFailures(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Run: func(_ context.Context, key experiments.RunKey) (metrics.Results, error) {
			if key.NumEvents == 2 {
				return metrics.Results{}, fmt.Errorf("synthetic failure")
			}
			return stubResults(key), nil
		},
	})
	body := `{"runs":[{"system":"qz","env":"crowded","events":1},{"system":"qz","env":"crowded","events":2}]}`
	_, events := collectStream(t, ts, "/v1/sweep/stream", body)
	terminal := auditStream(t, events)
	if terminal.Failed != 1 || terminal.Done != 2 {
		t.Fatalf("terminal = %+v", terminal)
	}
	failed := 0
	for _, ev := range events {
		if ev.Event == "run" && ev.Entry.Status == StatusFailed {
			failed++
			if !strings.Contains(ev.Entry.Error, "synthetic failure") {
				t.Fatalf("failed entry error = %q", ev.Entry.Error)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("failed run events = %d, want 1", failed)
	}
}

// TestSweepStreamDisconnectNoLeak cancels the client mid-stream and
// requires (a) the in-flight executions to be cancelled, (b) the goroutine
// count to settle back to its pre-request level, and (c) the server to
// stay fully serviceable — the memo must not be poisoned by the cancelled
// runs.
func TestSweepStreamDisconnectNoLeak(t *testing.T) {
	started := make(chan struct{}, 8)
	s, ts := newTestServer(t, Config{
		StreamHeartbeat: 10 * time.Millisecond,
		Run: func(ctx context.Context, key experiments.RunKey) (metrics.Results, error) {
			started <- struct{}{}
			<-ctx.Done() // blocks until the disconnect propagates
			return metrics.Results{}, ctx.Err()
		},
	})
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep/stream",
		strings.NewReader(`{"runs":[{"system":"qz","env":"crowded","events":1},{"system":"qz","env":"crowded","events":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Both executions are live and at least one stream event is out.
	<-started
	<-started
	buf := make([]byte, 256)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("first stream read: %v", err)
	}

	cancel()
	resp.Body.Close()

	// Every goroutine the stream spawned must retire.
	waitUntil(t, "goroutines to settle after disconnect", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base+2
	})
	waitUntil(t, "admission queue to drain", func() bool { return s.adm.snapshot().Queued == 0 })

	// The server is intact: the same keys run to completion now.
	_, ts2body := postJSON(t, ts, "/v1/run", `{"system":"qz","env":"crowded","events":3,"timeout_ms":100}`)
	if !strings.Contains(ts2body, "deadline") && !strings.Contains(ts2body, StatusFailed) {
		// The stub blocks forever by design, so this run times out — the
		// point is the handler answered at all.
		t.Fatalf("post-disconnect run answered strangely: %s", ts2body)
	}
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after disconnect = %d", resp.StatusCode)
	}
}

func TestFleetStreamContract(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, ts := newTestServer(t, Config{Store: st, StreamHeartbeat: time.Millisecond})

	body := `{"devices": 16, "system": "qz", "env": "less-crowded", "events": 2}`
	_, events := collectStream(t, ts, "/v1/fleet/stream", body)
	terminal := auditStream(t, events)
	if terminal.Event != "done" || terminal.Aggregate == nil || terminal.Stats == nil {
		t.Fatalf("terminal = %+v", terminal)
	}
	if terminal.Cached || terminal.Stats.Devices != 16 {
		t.Fatalf("fresh fleet stream: cached=%v devices=%d", terminal.Cached, terminal.Stats.Devices)
	}
	if events[0].DevicesTotal != 16 {
		t.Fatalf("start event devices_total = %d", events[0].DevicesTotal)
	}
	fresh, err := json.Marshal(terminal.Aggregate)
	if err != nil {
		t.Fatal(err)
	}

	// The identical plan now streams a cached terminal immediately — same
	// aggregate bytes, no second simulation.
	_, events2 := collectStream(t, ts, "/v1/fleet/stream", body)
	terminal2 := auditStream(t, events2)
	if !terminal2.Cached {
		t.Fatalf("second identical fleet stream not served from store: %+v", terminal2)
	}
	cached, err := json.Marshal(terminal2.Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	if string(fresh) != string(cached) {
		t.Fatalf("cached aggregate diverged:\n%s\n%s", fresh, cached)
	}

	// And the plain /v1/fleet endpoint shares the same cache.
	resp, out := postJSON(t, ts, "/v1/fleet", body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(out, `"cached":true`) {
		t.Fatalf("/v1/fleet after stream = %d %s", resp.StatusCode, out)
	}
}

// TestFleetStreamDisconnectCancels pins that a fleet sweep runs under its
// request: a client that disconnects mid-sweep frees the single-fleet gate,
// leaks no goroutine and publishes nothing, so the next identical request
// runs fresh instead of being served from the store.
func TestFleetStreamDisconnectCancels(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a real fleet")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s, ts := newTestServer(t, Config{Store: st, StreamHeartbeat: 10 * time.Millisecond})
	base := runtime.NumGoroutine()

	// Large enough that the sweep is still running when the disconnect lands.
	const devices = 2000
	body := fmt.Sprintf(`{"devices": %d, "system": "qz", "env": "less-crowded", "events": 2}`, devices)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/fleet/stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The start event is out: the gate is held and the sweep is under way.
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || !strings.Contains(line, `"event":"start"`) {
		t.Fatalf("first stream line = %q, %v", line, err)
	}

	cancel()
	resp.Body.Close()

	waitUntil(t, "fleet gate to free after disconnect", func() bool { return !s.fleetBusy.Load() })
	waitUntil(t, "goroutines to settle after disconnect", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base+2
	})
	if n, puts := s.mFleetsExecuted.Value(), s.mStorePuts.Value(); n != 0 || puts != 0 {
		t.Fatalf("cancelled sweep counted %d fleets and %d store puts, want 0 and 0", n, puts)
	}

	// Nothing was published, so the identical plan runs fresh to the end.
	_, events := collectStream(t, ts, "/v1/fleet/stream", body)
	terminal := auditStream(t, events)
	if terminal.Event != "done" || terminal.Cached || terminal.Stats == nil || terminal.Stats.Devices != devices {
		t.Fatalf("rerun after disconnect: %+v", terminal)
	}
	if n := s.mFleetsExecuted.Value(); n != 1 {
		t.Fatalf("fleets executed = %d after the rerun, want 1", n)
	}
}

// TestFleetStreamTimeoutEndsWithError pins the terminal-event contract on a
// sweep that outlives its budget: the stream ends with one "error" event
// naming the deadline, not with no terminal event at all.
func TestFleetStreamTimeoutEndsWithError(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a real fleet")
	}
	s, ts := newTestServer(t, Config{StreamHeartbeat: time.Second})
	// 1 ms cannot complete 1000 devices.
	_, events := collectStream(t, ts, "/v1/fleet/stream",
		`{"devices": 1000, "system": "qz", "env": "less-crowded", "timeout_ms": 1}`)
	terminal := auditStream(t, events)
	if terminal.Event != "error" || !strings.Contains(terminal.Error, "deadline exceeded") {
		t.Fatalf("terminal = %+v, want an error event naming the deadline", terminal)
	}
	if s.fleetBusy.Load() {
		t.Fatal("fleet gate still held after the stream ended")
	}
}
