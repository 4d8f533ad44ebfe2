package service

// POST /v1/fleet: one request simulates a whole device population. Fleet
// sweeps differ from /v1/run in kind, not just size — minutes-long, bounded
// memory by construction, results already aggregated — so they get their own
// execution budget, a single-concurrency gate instead of the per-run
// admission queue, and progress gauges (devices done/total, peak heap)
// published through /metrics while the sweep runs.
//
// POST /v1/fleet and POST /v1/fleet/stream share one core: admitFleet
// decodes the plan, serves a stored result or takes the single-fleet gate,
// and runFleet executes, publishes and frees the gate. A sweep runs under
// its request's context, so on either route a client that disconnects
// cancels it: nothing is published, and the next identical request runs
// fresh.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"quetzal/internal/experiments"
	"quetzal/internal/fleet"
)

// fleetRequest is the body of POST /v1/fleet: a FleetSpec plus transport
// knobs.
type fleetRequest struct {
	experiments.FleetSpec
	// TimeoutMs shortens the server's fleet budget; it can never extend it.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// fleetResponse is the body of a successful POST /v1/fleet.
type fleetResponse struct {
	// Plan echoes the fully resolved plan (defaults applied), so the caller
	// can reproduce the sweep bit-for-bit from the response alone.
	Plan      string           `json:"plan"`
	Aggregate *fleet.Aggregate `json:"aggregate"`
	Stats     fleet.RunStats   `json:"stats"`
	// Cached marks responses served from the shared store: some replica
	// already ran this exact resolved plan, so no devices were simulated.
	Cached bool `json:"cached,omitempty"`
}

// fleetID derives the store id for a resolved plan. The "f0" prefix keeps
// fleet records disjoint from run records, which hash the RunKey instead.
func fleetID(plan experiments.FleetPlan) string {
	sum := sha256.Sum256([]byte("fleet\x00" + plan.String()))
	return "f0" + hex.EncodeToString(sum[:8])
}

// fleetStored is the store payload for one finished fleet sweep. Stats ride
// along so a cached response is shaped like a fresh one; they describe the
// original execution, not the cache hit.
type fleetStored struct {
	Aggregate *fleet.Aggregate `json:"aggregate"`
	Stats     fleet.RunStats   `json:"stats"`
}

// fleetLookup consults the shared store for a finished identical plan; nil
// on a miss.
func (s *Server) fleetLookup(plan experiments.FleetPlan) *fleetStored {
	if s.cfg.Store == nil {
		return nil
	}
	rec, ok := s.cfg.Store.Get(fleetID(plan))
	if !ok {
		return nil
	}
	var st fleetStored
	if err := json.Unmarshal(rec.Payload, &st); err != nil || st.Aggregate == nil {
		s.cfg.Logf("quetzald: fleet store record %s undecodable: %v", rec.ID, err)
		return nil
	}
	s.mStoreHits.Inc()
	return &st
}

// fleetPublish durably records a finished fleet sweep; failures are logged,
// never fatal.
func (s *Server) fleetPublish(plan experiments.FleetPlan, agg *fleet.Aggregate, stats fleet.RunStats) {
	if s.cfg.Store == nil || agg == nil {
		return
	}
	payload, err := json.Marshal(fleetStored{Aggregate: agg, Stats: stats})
	if err != nil {
		s.cfg.Logf("quetzald: fleet store marshal: %v", err)
		return
	}
	if err := s.cfg.Store.Put(fleetID(plan), "fleet "+plan.String(), payload); err != nil {
		s.cfg.Logf("quetzald: fleet store put: %v", err)
		return
	}
	s.mStorePuts.Inc()
}

// fleetOutcome is what one executed fleet sweep produced.
type fleetOutcome struct {
	agg   *fleet.Aggregate
	stats fleet.RunStats
	err   error
}

// admitFleet is the front half both fleet routes share: decode, validate
// through FleetSpec.Plan, look the plan up in the shared store, and take
// the single-fleet gate. A stored plan comes back as hit, with the gate
// left alone; otherwise the caller holds the gate and must hand it to
// runFleet. On failure it has written the error reply and returns
// ok=false.
func (s *Server) admitFleet(w http.ResponseWriter, r *http.Request) (plan experiments.FleetPlan, timeout time.Duration, hit *fleetStored, ok bool) {
	var req fleetRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		decodeBodyError(w, err)
		return plan, 0, nil, false
	}
	plan, err := req.FleetSpec.Plan()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request: "+err.Error(), 0)
		return plan, 0, nil, false
	}

	// A plan some replica already ran is served from the shared store before
	// the single-fleet gate: cache hits are cheap and can overlap a live sweep.
	if hit := s.fleetLookup(plan); hit != nil {
		return plan, 0, hit, true
	}

	// One fleet at a time: a second sweep would not queue behind the first in
	// any useful way on the same cores — shed it with a hint instead.
	if !s.fleetBusy.CompareAndSwap(false, true) {
		s.mShed.Inc()
		writeError(w, http.StatusTooManyRequests, "a fleet sweep is already running", s.cfg.FleetTimeout/4)
		return plan, 0, nil, false
	}
	// The gate holder owns the progress gauges: reset them before a stream
	// can snapshot them, so progress never appears to run backwards.
	s.fleetTotal.Store(int64(plan.Devices))
	s.fleetDone.Store(0)
	s.fleetPeakHeap.Store(0)

	return plan, shorten(s.cfg.FleetTimeout, req.TimeoutMs), nil, true
}

// runFleet executes an admitted plan under ctx shortened to timeout,
// feeding the progress gauges as it goes. A finished sweep is counted and
// published to the store; either way the single-fleet gate is free when
// runFleet returns.
func (s *Server) runFleet(ctx context.Context, plan experiments.FleetPlan, timeout time.Duration) fleetOutcome {
	defer s.fleetBusy.Store(false)
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	s.cfg.Logf("quetzald: fleet start: %s", plan)

	var o fleetOutcome
	o.agg, o.stats, o.err = fleet.Run(ctx, plan, fleet.Options{
		Workers: s.cfg.Workers,
		OnProgress: func(done, _ int) {
			s.fleetDone.Store(int64(done))
		},
		OnHeapSample: func(heap uint64) {
			for {
				prev := s.fleetPeakHeap.Load()
				if heap <= prev || s.fleetPeakHeap.CompareAndSwap(prev, heap) {
					return
				}
			}
		},
	})
	if o.err != nil {
		s.mRunErrors.Inc()
		s.cfg.Logf("quetzald: fleet failed: %v", o.err)
		return o
	}
	s.mFleetsExecuted.Inc()
	s.fleetPublish(plan, o.agg, o.stats)
	s.cfg.Logf("quetzald: fleet done: %d devices in %.1fs (%.0f devices/s, peak heap %.1f MiB)",
		o.stats.Devices, o.stats.ElapsedSec, o.stats.DevicesPerSec, float64(o.stats.PeakHeapBytes)/(1<<20))
	return o
}

// handleFleet is POST /v1/fleet: admit, run, answer with the aggregate.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	plan, timeout, hit, ok := s.admitFleet(w, r)
	if !ok {
		return
	}
	if hit != nil {
		writeJSON(w, http.StatusOK, fleetResponse{Plan: plan.String(), Aggregate: hit.Aggregate, Stats: hit.Stats, Cached: true})
		return
	}
	o := s.runFleet(r.Context(), plan, timeout)
	if o.err != nil {
		writeError(w, runErrorStatus(o.err), fmt.Sprintf("fleet: %v", o.err), 0)
		return
	}
	writeJSON(w, http.StatusOK, fleetResponse{Plan: plan.String(), Aggregate: o.agg, Stats: o.stats})
}
