package service

// Streaming endpoints: POST /v1/sweep/stream and POST /v1/fleet/stream
// answer with chunked JSONL (application/x-ndjson) — one event object per
// line, flushed as it happens. The stream contract every client and test
// can rely on:
//
//   - the first event is "start";
//   - progress events are monotonic ("done" never decreases, per-run
//     events arrive as runs finish);
//   - an idle stream still emits a "heartbeat" at the configured cadence,
//     so proxies and clients can tell a slow sweep from a dead one;
//   - exactly one terminal event ("done" or "error") ends the stream, and
//     nothing follows it.
//
// A client that disconnects mid-stream cancels the work it was waiting on,
// on both routes: the sweep's runs or the fleet sweep run under the
// request's context. A cancelled fleet publishes nothing, so the next
// identical request runs fresh. No goroutine outlives the cleanup, which
// stream_test.go pins with goroutine-count leak checks.

import (
	"encoding/json"
	"net/http"
	"time"

	"quetzal/internal/fleet"
)

// streamEvent is one JSONL line on a streaming response. A single flat
// schema serves both endpoints; unset fields are omitted.
type streamEvent struct {
	Event     string  `json:"event"` // start | run | snapshot | heartbeat | done | error
	ElapsedMs float64 `json:"elapsed_ms"`

	// Sweep fields.
	Done   int          `json:"done,omitempty"`
	Total  int          `json:"total,omitempty"`
	Failed int          `json:"failed,omitempty"`
	Entry  *runResponse `json:"entry,omitempty"`

	// Fleet fields.
	DevicesDone   int64            `json:"devices_done,omitempty"`
	DevicesTotal  int64            `json:"devices_total,omitempty"`
	PeakHeapBytes uint64           `json:"peak_heap_bytes,omitempty"`
	Aggregate     *fleet.Aggregate `json:"aggregate,omitempty"`
	Stats         *fleet.RunStats  `json:"stats,omitempty"`
	Cached        bool             `json:"cached,omitempty"`

	Error string `json:"error,omitempty"`
}

// Unwrap lets http.NewResponseController reach the real connection through
// the metrics-capturing statusWriter, so streams can flush per event.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// streamWriter emits JSONL events with an immediate flush per line, each
// stamped with the time since the stream opened.
type streamWriter struct {
	enc   *json.Encoder
	rc    *http.ResponseController
	now   func() time.Time
	start time.Time
	fail  bool // a write failed: the client is gone, stop emitting
}

// newStreamWriter commits the 200 and the stream headers: from here on,
// failures become error events, not status codes.
func (s *Server) newStreamWriter(w http.ResponseWriter) *streamWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	return &streamWriter{
		enc: json.NewEncoder(w), rc: http.NewResponseController(w),
		now: s.cfg.Now, start: s.cfg.Now(),
	}
}

// event stamps and writes one line; after a failed write it does nothing.
func (sw *streamWriter) event(ev streamEvent) {
	if sw.fail {
		return
	}
	ev.ElapsedMs = float64(sw.now().Sub(sw.start)) / float64(time.Millisecond)
	if err := sw.enc.Encode(ev); err != nil {
		sw.fail = true
		return
	}
	if err := sw.rc.Flush(); err != nil {
		sw.fail = true
	}
}

// handleSweepStream is POST /v1/sweep/stream: the same decode, admission
// and fan-out as /v1/sweep, but results stream back one line per finished
// run instead of one document at the end.
func (s *Server) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	keys, timeout, ok := s.decodeRuns(w, r, "sweep", maxSweepKeys)
	if !ok {
		return
	}
	fresh, ok := s.admitRuns(w, keys, timeout)
	if !ok {
		return
	}
	defer s.adm.release(len(fresh))

	sw := s.newStreamWriter(w)
	sw.event(streamEvent{Event: "start", Total: len(keys)})

	results := s.fanOut(r.Context(), keys, timeout)
	tick := time.NewTicker(s.cfg.StreamHeartbeat)
	defer tick.Stop()
	done, failed := 0, 0
	for done < len(keys) {
		select {
		case res := <-results:
			done++
			if res.entry.Status == StatusFailed {
				failed++
			}
			sw.event(streamEvent{Event: "run", Entry: &res.entry, Done: done, Total: len(keys)})
		case <-tick.C:
			sw.event(streamEvent{Event: "heartbeat", Done: done, Total: len(keys)})
		case <-r.Context().Done():
			// The client is gone, which cancelled the executions; wait for
			// them so the handler never returns with workers still queued.
			for ; done < len(keys); done++ {
				<-results
			}
			return
		}
	}
	sw.event(streamEvent{Event: "done", Done: done, Total: len(keys), Failed: failed})
}

// handleFleetStream is POST /v1/fleet/stream: one fleet sweep with progress
// snapshots at the heartbeat cadence and the aggregate or the error in the
// terminal event. A cached plan (same resolved plan already in the shared
// store) answers with an immediate terminal event.
func (s *Server) handleFleetStream(w http.ResponseWriter, r *http.Request) {
	plan, timeout, hit, ok := s.admitFleet(w, r)
	if !ok {
		return
	}
	devices := int64(plan.Devices)
	sw := s.newStreamWriter(w)
	sw.event(streamEvent{Event: "start", DevicesTotal: devices})
	if hit != nil {
		sw.event(streamEvent{Event: "done", Aggregate: hit.Aggregate, Stats: &hit.Stats, Cached: true,
			DevicesDone: devices, DevicesTotal: devices})
		return
	}

	outcome := make(chan fleetOutcome, 1)
	go func() { outcome <- s.runFleet(r.Context(), plan, timeout) }()
	tick := time.NewTicker(s.cfg.StreamHeartbeat)
	defer tick.Stop()
	for {
		select {
		case o := <-outcome:
			// A cancelled sweep ends here too, so a stream that outlives
			// its budget still gets its terminal event.
			if o.err != nil {
				sw.event(streamEvent{Event: "error", Error: o.err.Error()})
				return
			}
			sw.event(streamEvent{Event: "done", Aggregate: o.agg, Stats: &o.stats,
				DevicesDone: s.fleetDone.Load(), DevicesTotal: devices})
			return
		case <-tick.C:
			sw.event(streamEvent{Event: "snapshot",
				DevicesDone:   s.fleetDone.Load(),
				DevicesTotal:  devices,
				PeakHeapBytes: s.fleetPeakHeap.Load()})
		}
	}
}
