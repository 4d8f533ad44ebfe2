package service

// HTTP handlers and middleware. Every API route goes through wrap(), which
// refuses work while draining, counts requests and responses, isolates
// panics, and tracks in-flight requests for Drain. Handlers never talk to
// the simulator directly: they decode into experiments.KeySpec (the one
// validation gate for untrusted input), pass the admission gate, and submit
// to the single-flight pool under a context deadline.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"quetzal/internal/experiments"
	"quetzal/internal/metrics"
	"quetzal/internal/obs"
	"quetzal/internal/runner"
)

// runRequest is the body of POST /v1/run: a KeySpec plus transport knobs.
type runRequest struct {
	experiments.KeySpec
	// TimeoutMs shortens the server's per-request budget; it can never
	// extend it.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// runResponse is the body of a successful POST /v1/run and of
// GET /v1/runs/{id} for a finished run.
type runResponse struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Status string `json:"status"`
	// Coalesced marks responses served without a fresh execution: the run
	// was already memoized or joined an in-flight duplicate.
	Coalesced bool `json:"coalesced,omitempty"`
	// Stored marks GET /v1/runs/{id} responses reconstructed from the
	// durable store rather than this replica's in-memory records — the
	// warm-restart path.
	Stored    bool             `json:"stored,omitempty"`
	ElapsedMs float64          `json:"elapsed_ms,omitempty"`
	Results   *metrics.Results `json:"results,omitempty"`
	Error     string           `json:"error,omitempty"`
}

// sweepRequest is the body of every multi-run route: POST /v1/sweep,
// /v1/sweep/stream and /v1/batch.
type sweepRequest struct {
	Runs []experiments.KeySpec `json:"runs"`
	// TimeoutMs shortens the per-run budget; it can never extend it.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// Per-request run limits of the multi-run routes, each clamped to the
// admission queue by decodeRuns. Batch runs execute in the background, so
// the batch bound is independent of the sweep one.
const (
	maxSweepKeys = 64
	maxBatchKeys = 256
)

// sweepResponse is the body of a POST /v1/sweep reply; entries are in
// request order.
type sweepResponse struct {
	Count   int           `json:"count"`
	Failed  int           `json:"failed"`
	Entries []runResponse `json:"entries"`
}

// errorResponse is every non-2xx JSON body.
type errorResponse struct {
	Error string `json:"error"`
	// RetryAfterMs accompanies 429s, mirroring the Retry-After header.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// Handler returns the service's routing table. The mux uses Go 1.22 method
// patterns, so wrong-method requests get 405 from the mux itself.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/run", s.wrap("run", s.handleRun))
	mux.Handle("POST /v1/batch", s.wrap("batch", s.handleBatch))
	mux.Handle("POST /v1/sweep", s.wrap("sweep", s.handleSweep))
	mux.Handle("POST /v1/sweep/stream", s.wrap("sweep_stream", s.handleSweepStream))
	mux.Handle("POST /v1/fleet", s.wrap("fleet", s.handleFleet))
	mux.Handle("POST /v1/fleet/stream", s.wrap("fleet_stream", s.handleFleetStream))
	mux.Handle("GET /v1/runs/{id}", s.wrap("get_run", s.handleGetRun))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// statusWriter captures the response code for metrics and whether the
// handler started writing (a panic after that point cannot be turned into
// a clean 500).
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// wrap is the middleware stack shared by the API routes.
func (s *Server) wrap(route string, h http.HandlerFunc) http.Handler {
	reqs := s.reg.Counter("quetzald_http_requests_total_" + route)
	lat := s.reg.Histogram("quetzald_request_seconds_"+route, obs.LatencyBuckets())
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, "draining: not accepting new work", 0)
			s.countClass(route, http.StatusServiceUnavailable)
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Done()

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := s.cfg.Now()
		defer func() {
			if p := recover(); p != nil {
				s.mPanics.Inc()
				s.cfg.Logf("quetzald: panic in %s: %v", route, p)
				// The handler died before writing: report 500. If it had
				// started writing, the connection is torn anyway.
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p), 0)
				}
			}
			s.countClass(route, sw.code)
			lat.Observe(s.cfg.Now().Sub(start).Seconds())
		}()
		r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		h(sw, r)
	})
}

// countClass bumps quetzald_http_responses_total_<route>_<N>xx.
func (s *Server) countClass(route string, code int) {
	idx := code / 100
	if idx < 1 || idx > 5 {
		idx = 5
	}
	s.reg.Counter(fmt.Sprintf("quetzald_http_responses_total_%s_%dxx", route, idx)).Inc()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client disconnects are not actionable
}

func writeError(w http.ResponseWriter, code int, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(int64(retryAfter/time.Second), 10))
	}
	writeJSON(w, code, errorResponse{Error: msg, RetryAfterMs: int64(retryAfter / time.Millisecond)})
}

// decodeStrict decodes exactly one JSON value, rejecting unknown fields and
// trailing garbage — the wire must match the schema byte for byte.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// decodeBodyError maps a decode failure to a status code: oversized bodies
// are 413, everything else malformed is 400.
func decodeBodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("body exceeds %d bytes", tooBig.Limit), 0)
		return
	}
	writeError(w, http.StatusBadRequest, "bad request: "+err.Error(), 0)
}

// timeoutFor resolves a run's effective deadline: the server's run budget,
// shortened (never extended) by the request's timeout_ms.
func (s *Server) timeoutFor(timeoutMs int) time.Duration {
	return shorten(s.cfg.RunTimeout, timeoutMs)
}

// shorten caps a server budget at a request's positive timeout_ms; it
// never extends the budget.
func shorten(budget time.Duration, timeoutMs int) time.Duration {
	if timeoutMs > 0 {
		if req := time.Duration(timeoutMs) * time.Millisecond; req < budget {
			return req
		}
	}
	return budget
}

// runErrorStatus maps an execution error to a response code.
func runErrorStatus(err error) int {
	switch {
	case errors.Is(err, runner.ErrSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the code is advisory at this point.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// execute submits one validated key under the deadline and remembers the
// outcome. Shared by run and sweep; the raw error is returned alongside the
// wire response so callers can map it to a status code.
func (s *Server) execute(ctx context.Context, key experiments.RunKey, timeout time.Duration) (runResponse, error) {
	id := runID(key)
	coalesced := s.pool.Known(key)
	s.remember(id, record{Key: key, Status: StatusRunning})

	runCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	start := s.cfg.Now()
	res, err := s.pool.Do(runCtx, key)
	elapsed := s.cfg.Now().Sub(start)

	out := runResponse{
		ID:        id,
		Key:       key.String(),
		Coalesced: coalesced,
		ElapsedMs: float64(elapsed) / float64(time.Millisecond),
	}
	if err != nil {
		out.Status = StatusFailed
		out.Error = err.Error()
		s.remember(id, record{Key: key, Status: StatusFailed, Err: err.Error()})
		return out, err
	}
	out.Status = StatusDone
	out.Results = &res
	s.remember(id, record{Key: key, Status: StatusDone, Results: res})
	return out, nil
}

// handleRun is POST /v1/run: decode, validate, admit, execute.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		decodeBodyError(w, err)
		return
	}
	key, err := req.KeySpec.RunKey()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request: "+err.Error(), 0)
		return
	}
	timeout := s.timeoutFor(req.TimeoutMs)

	// Known keys (memoized or in-flight) bypass admission: joining costs no
	// worker slot, so duplicates coalesce even when the queue is saturated.
	if !s.pool.Known(key) {
		ok, retry, predicted := s.adm.tryAdmit(1, timeout)
		if !ok {
			s.mShed.Inc()
			s.cfg.Logf("quetzald: shed %s (predicted residence %v > deadline %v)",
				key, predicted.Round(time.Millisecond), timeout)
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("saturated: predicted queue residence %v exceeds deadline %v",
					predicted.Round(time.Millisecond), timeout), retry)
			return
		}
		defer s.adm.release(1)
	}

	out, err := s.execute(r.Context(), key, timeout)
	if err != nil {
		writeError(w, runErrorStatus(err), out.Error, 0)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// decodeRuns is the decode step of the multi-run routes: decode the body,
// bound its runs by the route's limit ("per-<route> limit" in the error),
// resolve every spec up front (one bad entry fails the whole request in
// milliseconds) and work out the per-run timeout. On failure it has written
// the 400 or 413 and returns ok=false.
func (s *Server) decodeRuns(w http.ResponseWriter, r *http.Request, route string, limit int) (keys []experiments.RunKey, timeout time.Duration, ok bool) {
	var req sweepRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		decodeBodyError(w, err)
		return nil, 0, false
	}
	if len(req.Runs) == 0 {
		writeError(w, http.StatusBadRequest, "bad request: runs is empty", 0)
		return nil, 0, false
	}
	// A request's new executions are admitted as a unit, so one larger than
	// the admission queue could never be admitted at all.
	limit = min(limit, s.cfg.MaxQueue)
	if len(req.Runs) > limit {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("bad request: %d runs exceeds the per-%s limit %d", len(req.Runs), route, limit), 0)
		return nil, 0, false
	}
	keys = make([]experiments.RunKey, len(req.Runs))
	for i, sp := range req.Runs {
		k, err := sp.RunKey()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request: runs[%d]: %v", i, err), 0)
			return nil, 0, false
		}
		keys[i] = k
	}
	return keys, s.timeoutFor(req.TimeoutMs), true
}

// admitRuns is the admission step of the multi-run routes. It charges only
// the distinct keys the pool does not yet know: duplicates within the
// request single-flight onto one execution, and known keys join free. It
// returns those fresh keys, whose slots the caller must release. On shed it
// has written the 429 with Retry-After and returns ok=false.
func (s *Server) admitRuns(w http.ResponseWriter, keys []experiments.RunKey, timeout time.Duration) (fresh []experiments.RunKey, ok bool) {
	seen := make(map[experiments.RunKey]bool, len(keys))
	for _, k := range keys {
		if !seen[k] && !s.pool.Known(k) {
			fresh = append(fresh, k)
		}
		seen[k] = true
	}
	if len(fresh) == 0 {
		return nil, true
	}
	ok, retry, predicted := s.adm.tryAdmit(len(fresh), timeout)
	if !ok {
		s.mShed.Inc()
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("saturated: %d new runs, predicted queue residence %v exceeds deadline %v",
				len(fresh), predicted.Round(time.Millisecond), timeout), retry)
		return nil, false
	}
	return fresh, true
}

// sweepResult is one finished run of a sweep and its index in the request.
type sweepResult struct {
	i     int
	entry runResponse
}

// fanOut executes every key concurrently under ctx and delivers each entry
// as it finishes. The channel holds every result, so producers never block
// and a mid-stream disconnect cannot strand them; a caller must still
// receive all len(keys) results before it returns, so no execution outlives
// its handler.
func (s *Server) fanOut(ctx context.Context, keys []experiments.RunKey, timeout time.Duration) <-chan sweepResult {
	results := make(chan sweepResult, len(keys))
	for i, k := range keys {
		go func() {
			entry, _ := s.execute(ctx, k, timeout)
			results <- sweepResult{i, entry}
		}()
	}
	return results
}

// handleSweep is POST /v1/sweep: decode, admit the new executions as a unit,
// run them concurrently on the pool and answer with every entry in request
// order.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	keys, timeout, ok := s.decodeRuns(w, r, "sweep", maxSweepKeys)
	if !ok {
		return
	}
	fresh, ok := s.admitRuns(w, keys, timeout)
	if !ok {
		return
	}
	defer s.adm.release(len(fresh))

	out := sweepResponse{Count: len(keys), Entries: make([]runResponse, len(keys))}
	results := s.fanOut(r.Context(), keys, timeout)
	for range keys {
		res := <-results
		out.Entries[res.i] = res.entry
		if res.entry.Status == StatusFailed {
			out.Failed++
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleGetRun is GET /v1/runs/{id}.
func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.lookup(id)
	if !ok {
		// Fall back to the durable store: a freshly restarted replica (or a
		// sibling that never saw the original request) still serves any id
		// the fleet has computed.
		if s.cfg.Store != nil {
			// Fleet records share the store but are not runs; their keys are
			// namespaced so they can never masquerade as one here.
			if srec, found := s.cfg.Store.Get(id); found && !strings.HasPrefix(srec.Key, "fleet ") {
				if res, okRes := s.storeLookup(id); okRes {
					s.mStoreHits.Inc()
					writeJSON(w, http.StatusOK, runResponse{
						ID: id, Key: srec.Key, Status: StatusDone, Stored: true, Results: &res,
					})
					return
				}
			}
		}
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown run id %q", id), 0)
		return
	}
	out := runResponse{ID: id, Key: rec.Key.String(), Status: rec.Status, Error: rec.Err}
	switch rec.Status {
	case StatusDone:
		res := rec.Results
		out.Results = &res
		writeJSON(w, http.StatusOK, out)
	case StatusRunning:
		writeJSON(w, http.StatusAccepted, out)
	default:
		writeJSON(w, http.StatusOK, out)
	}
}

// handleHealthz reports liveness; a draining server answers 503 so load
// balancers stop routing to it while in-flight runs finish.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics refreshes the gauges and serves the registry. It stays up
// during drain: the final scrape is how operators confirm the ledger and
// the counters agree.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.refreshGauges()
	s.reg.ServeHTTP(w, r)
}
