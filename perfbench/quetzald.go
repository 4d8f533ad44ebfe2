package main

// The quetzald-mixed workload: an in-process quetzald (service.New with a
// Setup like `quetzald -engine event -events 40` and a durable store on a
// scratch directory), served over loopback and driven by an open-loop
// generator at a fixed offered rate. Requests are qz runs over the Table 1
// environments in three key classes:
//
//   - hot: memo hits, primed during set-up;
//   - warm: published to the store before set-up but not in the memo, so
//     each is served by a store read;
//   - cold: never seen, so each is simulated and published to the store.
//
// It is the only workload that exercises service, runner admission and
// queueing, and store.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"quetzal/internal/experiments"
	"quetzal/internal/metrics"
	"quetzal/internal/obs"
	"quetzal/internal/service"
	"quetzal/internal/sim"
	"quetzal/internal/store"
)

// qzLatencyLimit is the latency limit goodput_rps counts against,
// as recorded in BENCHMARK.json: a 200 response slower than this, timed
// from when its request was due, is not goodput.
const qzLatencyLimit = 50 * time.Millisecond

// Key classes of the request mix, and their shares of the offered load.
// The load follows the repository's recorded quetzald load
// (BENCH_quetzald.json and CI's scale-smoke job: 400 req/s, 70% of
// requests reusing one of 64 keys, the rest never seen before): the 64
// reused keys are the hot class (defaultSizes.qzHot, qzRate). The recorded
// load has no warm class; the never-seen 30% is split evenly between warm
// and cold, a choice that gives the store's read and write paths equal
// traffic.
const (
	classHot = iota
	classWarm
	classCold
	numClasses
)

var classShare = [numClasses]float64{0.7, 0.15, 0.15}

// qzKey is one distinct run the load asks for.
type qzKey struct {
	class int
	body  []byte // POST /v1/run body
	key   string // RunKey.String() the service must echo
	want  []byte // expected results JSON (hot and warm keys)
}

// qzRequest is one scheduled request.
type qzRequest struct {
	due time.Duration // offset from the start of the load
	k   *qzKey
}

// qzSchedule derives the keys and the arrival schedule from the seed alone:
// Poisson arrivals at the offered rate for the given duration, each
// assigned a class by classShare. Warm and cold keys are each requested
// once; hot keys are drawn uniformly from a small set.
func qzSchedule(seed int64, rate, seconds float64, nHot int) (hot, warm []*qzKey, reqs []qzRequest, err error) {
	rng := seedRand(seed, "quetzald-mixed")
	envs := []experiments.Environment{
		experiments.MoreCrowded, experiments.Crowded, experiments.LessCrowded, experiments.MSP430Env,
	}
	used := map[int64]bool{}
	newKey := func(class int, env experiments.Environment) (*qzKey, error) {
		s := rng.Int63n(1<<31) + 1
		for used[s] {
			s = rng.Int63n(1<<31) + 1
		}
		used[s] = true
		spec := experiments.KeySpec{System: experiments.SysQuetzal, Env: env.Name, Seed: s}
		rk, err := spec.RunKey()
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		return &qzKey{class: class, body: body, key: rk.String()}, nil
	}
	// Hot keys take the environments in turn: they carry most of the load,
	// and simulated durations differ by environment.
	for i := 0; i < nHot; i++ {
		k, err := newKey(classHot, envs[i%len(envs)])
		if err != nil {
			return nil, nil, nil, err
		}
		hot = append(hot, k)
	}
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		if t >= seconds {
			break
		}
		u := rng.Float64()
		var k *qzKey
		switch {
		case u < classShare[classHot]:
			k = hot[rng.Intn(len(hot))]
		case u < classShare[classHot]+classShare[classWarm]:
			if k, err = newKey(classWarm, envs[rng.Intn(len(envs))]); err != nil {
				return nil, nil, nil, err
			}
			warm = append(warm, k)
		default:
			if k, err = newKey(classCold, envs[rng.Intn(len(envs))]); err != nil {
				return nil, nil, nil, err
			}
		}
		reqs = append(reqs, qzRequest{due: time.Duration(t * float64(time.Second)), k: k})
	}
	return hot, warm, reqs, nil
}

// qzSetup is the service configuration of the workload.
func qzSetup(events int) experiments.Setup {
	s := experiments.DefaultSetup()
	s.NumEvents = events
	s.Engine = sim.EventDriven
	return s
}

// runResponse is the part of quetzald's POST /v1/run reply the benchmark
// checks.
type runResponse struct {
	ID        string           `json:"id"`
	Key       string           `json:"key"`
	Status    string           `json:"status"`
	Coalesced bool             `json:"coalesced"`
	Results   *metrics.Results `json:"results"`
}

// publishKeys fills the store directory with the results of keys, through
// a throwaway service on that store — the state another replica would have
// left behind. It records each key's results as the expected answer.
func publishKeys(dir string, setup experiments.Setup, keys []*qzKey) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	srv := service.New(service.Config{Setup: setup, Workers: workers(), Store: st})
	h := srv.Handler()
	var next atomic.Int64
	errs := make([]error, workers())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(keys) || errs[w] != nil {
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(keys[i].body)))
				var rr runResponse
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &rr) != nil || rr.Results == nil {
					errs[w] = fmt.Errorf("publishing %s: status %d: %s", keys[i].key, rec.Code, rec.Body.String())
					return
				}
				if keys[i].want, errs[w] = json.Marshal(rr.Results); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Drain(ctx)
}

// qzTracer holds the traced run's wrappers. They are installed on every
// server but record only while on is set, so the untraced half of a traced
// run executes the same code without the timing.
type qzTracer struct {
	on      atomic.Bool
	mu      sync.Mutex
	handler []float64 // ms per POST /v1/run
	sim     []float64 // ms per simulation (cold execution)
	spans   []span
}

func (t *qzTracer) record(dst *[]float64, name string, start time.Time, d time.Duration) {
	t.mu.Lock()
	*dst = append(*dst, float64(d)/float64(time.Millisecond))
	t.spans = append(t.spans, span{name: name, start: start, dur: d, run: name})
	t.mu.Unlock()
}

func (t *qzTracer) wrapRun(run service.RunFunc) service.RunFunc {
	return func(ctx context.Context, key experiments.RunKey) (metrics.Results, error) {
		if !t.on.Load() {
			return run(ctx, key)
		}
		start := time.Now()
		res, err := run(ctx, key)
		t.record(&t.sim, "service.sim", start, time.Since(start))
		return res, err
	}
}

func (t *qzTracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.URL.Path != "/v1/run" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(&t.handler, "service.handler", start, time.Since(start))
	})
}

// qzServer is one running quetzald instance.
type qzServer struct {
	st     *store.Store
	srv    *service.Server
	reg    *obs.Registry
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

// startServer brings up a quetzald on the store directory and serves it on
// a loopback port; openMs reports how long store.Open took.
func startServer(dir string, setup experiments.Setup, tr *qzTracer) (*qzServer, float64, error) {
	t0 := time.Now()
	st, err := store.Open(dir)
	openMs := float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		return nil, 0, err
	}
	reg := obs.NewRegistry()
	srv := service.New(service.Config{
		Setup:    setup,
		Workers:  workers(),
		Store:    st,
		Registry: reg,
		Run:      tr.wrapRun(setup.Execute),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, 0, err
	}
	s := &qzServer{
		st:     st,
		srv:    srv,
		reg:    reg,
		hs:     &http.Server{Handler: tr.wrapHandler(srv.Handler())},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/run",
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     workers(),
				MaxIdleConnsPerHost: workers(),
			},
		},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, openMs, nil
}

// stop drains the service, stops serving and closes the store.
func (s *qzServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	err := s.srv.Drain(ctx)
	if serr := s.hs.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.st.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// reply is one completed request as the client saw it.
type reply struct {
	class     int
	status    int
	latency   time.Duration // from when the request was due
	lag       time.Duration // how late the generator dispatched it
	res       *metrics.Results
	bad       string // why the reply failed verification, if it did
	k         *qzKey
	coalesced bool
}

// post sends one request and verifies the reply against the key.
func (s *qzServer) post(k *qzKey) reply {
	r := reply{class: k.class, k: k}
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(k.body))
	if err != nil {
		r.bad = err.Error()
		return r
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.status = resp.StatusCode
	if err != nil {
		r.bad = err.Error()
		return r
	}
	if r.status != http.StatusOK {
		if r.status != http.StatusTooManyRequests {
			r.bad = fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(body))
		}
		return r
	}
	var rr runResponse
	switch err := json.Unmarshal(body, &rr); {
	case err != nil:
		r.bad = "undecodable reply: " + err.Error()
	case rr.Status != "done" || rr.Results == nil:
		r.bad = "reply status " + rr.Status
	case rr.Key != k.key:
		r.bad = fmt.Sprintf("reply key %q, want %q", rr.Key, k.key)
	default:
		r.res, r.coalesced = rr.Results, rr.Coalesced
		if err := rr.Results.Check(); err != nil {
			r.bad = "results fail their accounting check: " + err.Error()
		} else if k.want != nil {
			if got, _ := json.Marshal(rr.Results); !bytes.Equal(got, k.want) {
				r.bad = "results differ from the published ones"
			}
		}
	}
	return r
}

// load plays the schedule open-loop: a generator dispatches each request
// when it is due, and at most workers() clients (one connection each) send
// them. Latency runs from when a request was due, so a stalled client
// charges its wait to every request queued behind it.
func (s *qzServer) load(reqs []qzRequest) []reply {
	out := make([]reply, len(reqs))
	type job struct {
		i      int
		due    time.Time
		lagged time.Duration
	}
	jobs := make(chan job, len(reqs)) // sized to the sends: the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r := s.post(reqs[j.i].k)
				r.latency = time.Since(j.due)
				r.lag = j.lagged
				out[j.i] = r
			}
		}()
	}
	start := time.Now()
	for i, rq := range reqs {
		due := start.Add(rq.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{i: i, due: due, lagged: max(time.Since(due), 0)}
	}
	close(jobs)
	wg.Wait()
	return out
}

// expected computes a key's results directly through Setup.Execute, the
// function the service runs, and returns their JSON.
func expected(ctx context.Context, setup experiments.Setup, k *qzKey) ([]byte, error) {
	var ks experiments.KeySpec
	if err := json.Unmarshal(k.body, &ks); err != nil {
		return nil, err
	}
	rk, err := ks.RunKey()
	if err != nil {
		return nil, err
	}
	res, err := setup.Execute(ctx, rk)
	if err != nil {
		return nil, fmt.Errorf("computing %s: %w", k.key, err)
	}
	return json.Marshal(res)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func runQuetzald(ctx context.Context, p params) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	setup := qzSetup(p.size.qzEvents)
	hot, warm, reqs, err := qzSchedule(p.seed, p.size.qzRate, p.seconds, p.size.qzHot)
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, errNoWork
	}
	if err := os.MkdirAll(p.workDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(p.workDir, "quetzald-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// Inputs: a store directory as another replica left it, holding every
	// warm key, and the expected answers for the hot keys. Not timed: it is
	// the state set-up starts from.
	template := filepath.Join(scratch, "template")
	if err := publishKeys(template, setup, warm); err != nil {
		return nil, fmt.Errorf("publishing warm keys: %w", err)
	}
	for _, k := range hot {
		if k.want, err = expected(ctx, setup, k); err != nil {
			return nil, err
		}
	}

	// Set-up: restore the store directory, open it, start the service,
	// and prime the memo with the hot keys, which it simulates and
	// publishes. Every rep but the last is torn down again, untimed.
	tr := &qzTracer{}
	var srv *qzServer
	var openMs []float64
	reps := p.size.setupReps
	if p.traced {
		reps = 1
	}
	rep := 0
	teardown := func() error {
		err := srv.stop()
		srv = nil
		return err
	}
	setupS, err := timeSetup(reps, teardown, func() error {
		rep++
		dir := filepath.Join(scratch, fmt.Sprintf("replica-%d", rep))
		if err := copyDir(template, dir); err != nil {
			return err
		}
		s, ms, err := startServer(dir, setup, tr)
		if err != nil {
			return err
		}
		srv = s
		openMs = append(openMs, ms)
		for _, k := range hot {
			if r := s.post(k); r.status != http.StatusOK || r.bad != "" {
				return fmt.Errorf("priming %s: status %d %s", k.key, r.status, r.bad)
			}
		}
		return nil
	})
	if err != nil {
		if srv != nil {
			srv.stop()
		}
		return nil, fmt.Errorf("set-up: %w", err)
	}
	primed := len(hot)

	var replies []reply
	var wall float64
	var tracedStart time.Time
	heap := startHeapSampler()
	if !p.traced {
		start := time.Now()
		replies = srv.load(reqs)
		wall = time.Since(start).Seconds()
	} else {
		// Untraced first half, traced second half: the difference in CPU
		// time per request is the tracing overhead.
		half := sort.Search(len(reqs), func(i int) bool { return reqs[i].due >= time.Duration(p.seconds/2*float64(time.Second)) })
		second := append([]qzRequest(nil), reqs[half:]...)
		for i := range second {
			second[i].due -= time.Duration(p.seconds / 2 * float64(time.Second))
		}
		c0 := cpuSeconds()
		replies = srv.load(reqs[:half])
		c1 := cpuSeconds()
		tr.on.Store(true)
		tracedStart = time.Now()
		traced := srv.load(second)
		wall = time.Since(tracedStart).Seconds()
		c2 := cpuSeconds()
		tr.on.Store(false)
		replies = append(replies, traced...)
		if half > 0 && len(second) > 0 {
			o.metrics["bench.trace_overhead_frac"] = ((c2-c1)/float64(len(second)))/((c1-c0)/float64(half)) - 1
		}
		o.metrics["bench.unattributed_frac"] = 1 - sumF(tr.handler)/sumMs(traced)
	}
	peak := heap.peakMiB()

	// Reconcile the client's tallies with the service's registry and
	// ledger, then verify a sample of the cold results by recomputing them.
	tally := tallyReplies(o, replies)
	ledger := srv.srv.Ledger()
	counter := func(name string) int { return int(srv.reg.Counter(name).Value()) }
	sent := len(replies) + primed
	checks := []struct {
		what      string
		got, want int
	}{
		{"requests counted by the service", counter("quetzald_http_requests_total_run"), sent},
		{"2xx responses counted by the service", counter("quetzald_http_responses_total_run_2xx"), tally.ok + primed},
		{"sheds counted by the service", counter("quetzald_shed_total"), tally.shed},
		{"executions + cache hits (submissions)", ledger.Executed + ledger.CacheHits, tally.ok + tally.errs + primed},
		{"store hits (distinct warm keys)", counter("quetzald_store_hits_total"), tally.distinct[classWarm]},
		{"store misses (hot primes + distinct cold keys)", counter("quetzald_store_misses_total"), primed + tally.distinct[classCold]},
		{"store puts (hot primes + distinct cold keys)", counter("quetzald_store_puts_total"), primed + tally.distinct[classCold]},
	}
	for _, c := range checks {
		o.attempted++
		if c.got != c.want {
			o.fail("%s: %d, client tally says %d", c.what, c.got, c.want)
		}
	}
	verified := 0
	for _, r := range replies {
		if verified == 4 {
			break
		}
		if r.class != classCold || r.res == nil {
			continue
		}
		verified++
		o.attempted++
		want, err := expected(ctx, setup, r.k)
		if err != nil {
			o.fail("recomputing %s: %v", r.k.key, err)
			continue
		}
		b, _ := json.Marshal(r.res)
		if !bytes.Equal(want, b) {
			o.fail("cold key %s: served results differ from a fresh computation", r.k.key)
		}
	}
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stopping the service: %w", err)
	}
	if o.digest, err = digestJSON(tally.outcomes); err != nil {
		return nil, err
	}

	m := o.metrics
	if !p.traced {
		m["setup_s"] = setupS
		m["sim_s_per_s"] = tally.simS / wall
		m["devices_per_s"] = float64(tally.ok) / wall
		m["goodput_rps"] = float64(tally.good) / wall
		m["p50_ms"] = quantile(tally.latMs, 0.50)
		m["p99_ms"] = windowedP99(reqs, replies)
		m["peak_heap_mib"] = peak
		m["discard_frac"] = ratioOf(tally.qz.discarded, tally.qz.interesting)
		m["highq_share"] = ratioOf(tally.qz.highQ, tally.qz.reported)
		return o, nil
	}
	if err := (&layerTimes{spans: tr.spans}).writeSpans(p.workDir, fmt.Sprintf("spans-quetzald-mixed-%d.json", p.seed), tracedStart); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	m["service.handler_ms_p50"] = median(tr.handler)
	m["service.sim_ms_p50"] = median(tr.sim)
	m["service.hot_ms_p50"] = median(tally.classMs[classHot])
	m["service.warm_ms_p50"] = median(tally.classMs[classWarm])
	m["service.cold_ms_p99"] = quantile(tally.classMs[classCold], 0.99)
	m["service.coalesced"] = float64(tally.coalesced)
	m["service.shed"] = float64(tally.shed)
	m["service.shed_frac"] = float64(tally.shed) / float64(len(replies))
	m["store.hits"] = float64(counter("quetzald_store_hits_total"))
	m["store.misses"] = float64(counter("quetzald_store_misses_total"))
	m["store.puts"] = float64(counter("quetzald_store_puts_total"))
	m["store.claim_losses"] = float64(counter("quetzald_store_claim_losses_total"))
	m["store.open_ms"] = median(openMs)
	m["runner.queue_wait_ms"] = float64(ledger.QueueWait) / float64(time.Millisecond) / max(float64(ledger.Executed), 1)
	m["runner.executed"] = float64(ledger.Executed)
	m["runner.cache_hits"] = float64(ledger.CacheHits)
	m["bench.generator_lag_ms_p99"] = quantile(tally.lagMs, 0.99)
	return o, nil
}

// qzWindow is the length of the windows windowedP99 splits a load into.
const qzWindow = 5 * time.Second

// windowedP99 is the median, over consecutive windows of the schedule, of
// each window's p99 latency. One window is about two thousand requests at
// the offered rate, so each p99 has about twenty requests beyond it, and a
// burst of interference that stalls one window does not set the figure.
// replies[i] answers reqs[i].
func windowedP99(reqs []qzRequest, replies []reply) float64 {
	byWindow := map[time.Duration][]float64{}
	for i, r := range replies {
		w := reqs[i].due / qzWindow
		byWindow[w] = append(byWindow[w], float64(r.latency)/float64(time.Millisecond))
	}
	var p99s []float64
	for _, ms := range byWindow {
		p99s = append(p99s, quantile(ms, 0.99))
	}
	return median(p99s)
}

// qzTally is the client's account of a load.
type qzTally struct {
	ok, good, shed, errs, coalesced int
	distinct                        [numClasses]int
	latMs, lagMs                    []float64
	classMs                         [numClasses][]float64
	simS                            float64
	qz                              qzOutcome
	outcomes                        map[string]*metrics.Results // distinct key → results
}

// tallyReplies counts the replies, marking every failed verification as a
// failed operation. Sheds are not failures, but they are not goodput.
func tallyReplies(o *outcome, replies []reply) qzTally {
	t := qzTally{outcomes: map[string]*metrics.Results{}}
	seen := map[*qzKey]bool{}
	for _, r := range replies {
		o.attempted++
		ms := float64(r.latency) / float64(time.Millisecond)
		t.latMs = append(t.latMs, ms)
		t.lagMs = append(t.lagMs, float64(r.lag)/float64(time.Millisecond))
		t.classMs[r.class] = append(t.classMs[r.class], ms)
		switch {
		case r.bad != "":
			t.errs++
			o.fail("%s: %s", r.k.key, r.bad)
			continue
		case r.status == http.StatusTooManyRequests:
			t.shed++
			continue
		}
		t.ok++
		if r.latency <= qzLatencyLimit {
			t.good++
		}
		if r.coalesced {
			t.coalesced++
		}
		t.simS += r.res.SimSeconds
		if !seen[r.k] {
			seen[r.k] = true
			t.distinct[r.class]++
			t.outcomes[r.k.key] = r.res
			t.qz.add(r.res)
		}
	}
	return t
}

func sumF(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// sumMs totals the replies' latencies in milliseconds.
func sumMs(rs []reply) float64 {
	s := 0.0
	for _, r := range rs {
		s += float64(r.latency) / float64(time.Millisecond)
	}
	return math.Max(s, 1e-9)
}
