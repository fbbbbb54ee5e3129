package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/aggfunc"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/station"
	"repro/internal/wsn"
)

// serveSpec is a workload that serves queries over HTTP, through the
// station API, from an in-process station or fleet.
type serveSpec struct {
	deploy  repro.Options
	cluster repro.ClusterOptions
	shards  int // 0 serves from one station, otherwise from a fleet of this many
	workers int // per station
	// Request i asks kinds[i mod len] under the explicit seed seeds[i mod
	// len].
	kinds []repro.QueryKind
	seeds []int64
	rate  float64 // open-loop arrivals per second
	// limit is the latency within which a closed-loop answer counts toward
	// goodput.
	limit time.Duration
	// warm is how many requests, one after another, end each setup, so lazy
	// set-up (each worker's first round, connection dials) finishes before
	// timing.
	warm int
}

// arrival is one request: what it asks and when it is due, as an offset
// from the start of its loop.
type arrival struct {
	Due  time.Duration
	Kind repro.QueryKind
	Seed int64
}

func (s serveSpec) request(i int) arrival {
	return arrival{Kind: s.kinds[i%len(s.kinds)], Seed: s.seeds[i%len(s.seeds)]}
}

// pairs lists every (kind, seed) the request cycle visits, in order.
func (s serveSpec) pairs() []arrival {
	n := len(s.kinds) * len(s.seeds) / gcd(len(s.kinds), len(s.seeds))
	out := make([]arrival, n)
	for i := range out {
		out[i] = s.request(i)
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// schedule is the open-loop arrival schedule: Poisson arrivals at s.rate
// drawn from seed, the first at 0, the last before window.
func (s serveSpec) schedule(seed int64, window time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	var t time.Duration
	for i := 0; t < window; i++ {
		a := s.request(i)
		a.Due = t
		out = append(out, a)
		t += time.Duration(rng.ExpFloat64() / s.rate * float64(time.Second))
	}
	return out
}

// answerKey indexes the offline reference answers.
type answerKey struct {
	kind repro.QueryKind
	seed int64
}

// references computes, offline and before anything is served, the answer
// every (kind, seed) of the workload must get: Reset(seed) + RunQuery(kind)
// on a deployment built from the same template. The work is spread over
// one deployment per processor.
func references(s serveSpec) (map[answerKey]repro.QueryAnswer, error) {
	pairs := s.pairs()
	out := make(map[answerKey]repro.QueryAnswer, len(pairs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), len(pairs))
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dep, err := repro.NewDeployment(s.deploy)
			if err != nil {
				errs[w] = err
				return
			}
			for i := w; i < len(pairs); i += workers {
				p := pairs[i]
				if err := dep.Reset(p.Seed); err != nil {
					errs[w] = err
					return
				}
				ans, err := dep.RunQuery(p.Kind, s.cluster)
				if err != nil {
					errs[w] = fmt.Errorf("reference %s seed %d: %w", p.Kind, p.Seed, err)
					return
				}
				mu.Lock()
				out[answerKey{p.Kind, p.Seed}] = ans
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// stack is the serving stack under test: backend, HTTP API on a loopback
// server, and a client limited to one connection per processor.
type stack struct {
	backend interface {
		station.Backend
		Drain(context.Context) error
	}
	srv       *httptest.Server
	transport *http.Transport
	client    *http.Client
}

func newStack(s serveSpec) (*stack, error) {
	scfg := station.Config{Workers: s.workers, QueueDepth: 64, Deploy: s.deploy, Cluster: s.cluster}
	st := &stack{}
	if s.shards > 0 {
		f, err := fleet.New(fleet.Config{Shards: s.shards, Station: scfg})
		if err != nil {
			return nil, err
		}
		st.backend = f
	} else {
		one, err := station.New(scfg)
		if err != nil {
			return nil, err
		}
		st.backend = one
	}
	st.srv = httptest.NewServer(station.NewAPI(st.backend).Handler())
	nproc := runtime.GOMAXPROCS(0)
	st.transport = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true}
	st.client = &http.Client{Transport: st.transport, Timeout: time.Minute}
	return st, nil
}

// close stops the server once its requests finish, then drains the backend.
func (st *stack) close() error {
	st.srv.Close()
	st.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return st.backend.Drain(ctx)
}

// outcome is one request as the client saw it.
type outcome struct {
	arrival
	due, sent, gotConn, done time.Time
	refused                  int // 503 answers retried
	status                   station.JobStatus
	err                      error // the request failed
	wrong                    error // the request was answered wrongly
}

func (o outcome) latency() time.Duration {
	if o.err != nil {
		return time.Duration(math.MaxInt64)
	}
	return o.done.Sub(o.due)
}

// maxRefusals bounds how often one request is retried after a 503.
const maxRefusals = 16

// checkFunc judges a served answer; a non-nil error marks it wrong.
type checkFunc func(arrival, repro.QueryAnswer) error

// do sends one synchronous query, retrying 503 refusals after the server's
// hint, and records when it was due, sent, given a connection and done.
func (st *stack) do(a arrival, due time.Time, check checkFunc) outcome {
	out := outcome{arrival: a, due: due, sent: time.Now()}
	var gotConn atomic.Pointer[time.Time]
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) {
			now := time.Now()
			gotConn.CompareAndSwap(nil, &now)
		},
	})
	body := []byte(fmt.Sprintf(`{"kind":%q,"seed":%d}`, a.Kind.String(), a.Seed))
	for {
		code, data, err := st.post(ctx, body)
		if err != nil {
			out.err = err
			break
		}
		if code == http.StatusServiceUnavailable && out.refused < maxRefusals {
			out.refused++
			var hint struct {
				RetryAfterMs int64 `json:"retry_after_ms"`
			}
			_ = json.Unmarshal(data, &hint) // no hint: retry after the floor below
			time.Sleep(max(time.Duration(hint.RetryAfterMs)*time.Millisecond, time.Millisecond))
			continue
		}
		if code != http.StatusOK {
			out.err = fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(data))
			break
		}
		if err := json.Unmarshal(data, &out.status); err != nil {
			out.err = fmt.Errorf("decoding job status: %w", err)
		} else if out.status.State != station.JobDone.String() || out.status.Answer == nil {
			out.err = fmt.Errorf("job %s ended %s: %s", out.status.ID, out.status.State, out.status.Error)
		}
		break
	}
	out.done = time.Now()
	if t := gotConn.Load(); t != nil {
		out.gotConn = *t
	}
	if out.err == nil {
		out.wrong = check(a, *out.status.Answer)
	}
	return out
}

func (st *stack) post(ctx context.Context, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.srv.URL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// openLoop sends each scheduled request at its due time, whatever the
// earlier ones are doing, and waits for all of them.
func (st *stack) openLoop(sched []arrival, check checkFunc) []outcome {
	outs := make([]outcome, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.Due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			outs[i] = st.do(a, due, check)
		}(i, a, due)
	}
	wg.Wait()
	return outs
}

// closedLoop runs one client per processor for window, each sending its
// next request when the last one is answered, continuing the request cycle
// at first.
func (st *stack) closedLoop(s serveSpec, first int, window time.Duration, check checkFunc) ([]outcome, time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < window {
				o := st.do(s.request(int(next.Add(1)-1)), time.Now(), check)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// setupServe builds the stack reps times, each followed by the warm-up,
// and keeps the last. It returns the setup times in seconds.
func setupServe(rep *report, s serveSpec, reps int, check checkFunc) (*stack, []float64, error) {
	var st *stack
	var setups []float64
	for i := 0; i < reps; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		t := time.Now()
		var err error
		st, err = newStack(s)
		if err != nil {
			return nil, nil, err
		}
		// A sequential warm-up keeps set-up latency-bound; a concurrent one
		// would time the host's saturated throughput, which drifts more.
		for j := 0; j < s.warm; j++ {
			o := st.do(s.request(j), time.Now(), check)
			if o.err != nil {
				_ = st.close() // the warm-up failure is the error to report
				return nil, nil, fmt.Errorf("warm-up request: %w", o.err)
			}
			if o.wrong != nil {
				rep.wrongf("warm-up: %v", o.wrong)
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	return st, setups, nil
}

func runServe(s serveSpec, o options, rec *spanRec) (*report, error) {
	rep := &report{}
	t := time.Now()
	refs, err := references(s)
	if err != nil {
		return nil, err
	}
	rep.add("verify_s", time.Since(t).Seconds(), "s", len(refs))
	check := func(a arrival, ans repro.QueryAnswer) error {
		if want := refs[answerKey{a.Kind, a.Seed}]; ans != want {
			return fmt.Errorf("%s seed %d: served %v, offline %v", a.Kind, a.Seed, ans, want)
		}
		return nil
	}
	if rec != nil {
		if err := serveTraced(rep, s, o.seed, o.window/2, check, rec); err != nil {
			return nil, err
		}
		if err := offlineLedger(rep, s, o.window/4, refs, rec); err != nil {
			return nil, err
		}
		return rep, microRows(rep, o.seed, o.window/4)
	}

	st, setups, err := setupServe(rep, s, serveSetups, check)
	if err != nil {
		return nil, err
	}
	rep.add("setup_s", median(setups), "s", len(setups))

	// Two thirds of the window is the open loop at the workload's rate, the
	// rest a closed loop that finds how much the stack can answer in time.
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	alloc0 := mem.TotalAlloc
	openWin := o.window * 2 / 3
	sched := s.schedule(o.seed, openWin)
	open := st.openLoop(sched, check)
	closed, elapsed := st.closedLoop(s, len(sched), o.window-openWin, check)
	runtime.ReadMemStats(&mem)
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("draining: %w", err)
	}

	all := append(append([]outcome(nil), open...), closed...)
	accepted := tally(rep, all)
	lat := make([]float64, len(open))
	for i, op := range open {
		lat[i] = ms(op.latency())
	}
	addLatency(rep, lat)
	good := 0
	closedLat := make([]float64, 0, len(closed))
	for _, c := range closed {
		closedLat = append(closedLat, ms(c.latency()))
		if c.err == nil && c.wrong == nil && c.latency() <= s.limit {
			good++
		}
	}
	rep.add("goodput_per_s", float64(good)/elapsed.Seconds(), "1/s", len(closed))
	rep.add("closed_p50_ms", newDist(closedLat).quantile(0.5), "ms", len(closed))
	rep.add("alloc_mb_per_op", float64(mem.TotalAlloc-alloc0)/float64(len(all))/1e6, "MB", len(all))
	rep.add("accepted_ratio", float64(accepted)/float64(len(all)), "ratio", len(all))
	rep.notef("open loop: %d requests at %g/s; closed loop: %d clients, %d requests in %.1f s, %d within %v",
		len(open), s.rate, runtime.GOMAXPROCS(0), len(closed), elapsed.Seconds(), good, s.limit)
	return rep, nil
}

// tally counts the outcomes into the report and returns how many were
// answered correctly with an accepted integrity verdict.
func tally(rep *report, outs []outcome) int {
	accepted := 0
	for _, o := range outs {
		rep.attempted++
		switch {
		case o.err != nil:
			rep.failed++
			rep.notef("%s seed %d failed: %v", o.Kind, o.Seed, o.err)
		case o.wrong != nil:
			rep.wrongf("%v", o.wrong)
		case o.status.Answer.Accepted:
			accepted++
		}
	}
	return accepted
}

// serveTraced builds the stack for s, runs the open loop for window with
// a span tree per request, and adds the serving-layer metrics: where each
// request's time went between the client, HTTP, the queue and the run.
func serveTraced(rep *report, s serveSpec, seed int64, window time.Duration, check checkFunc, rec *spanRec) error {
	st, _, err := setupServe(rep, s, 1, check)
	if err != nil {
		return err
	}
	open := st.openLoop(s.schedule(seed, window), check)
	if err := st.close(); err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	tally(rep, open)

	var late, queue, reqs []float64
	attempts, refused := 0, 0
	shards := make(map[string]int)
	for i, o := range open {
		attempts += 1 + o.refused
		refused += o.refused
		late = append(late, ms(o.sent.Sub(o.due)))
		if o.err != nil {
			continue
		}
		tid := fmt.Sprintf("req-%d", i)
		root := rec.add(0, "request", tid, o.due, o.done)
		rec.add(root, "station.client_wait", tid, o.due, o.gotConn)
		server := rec.add(root, "station.http", tid, o.gotConn, o.done)
		q0 := o.status.SubmittedAt
		q1 := q0.Add(msDur(o.status.QueueWaitMs))
		rec.add(server, "station.queue_wait", tid, q0, q1)
		rec.add(server, "station.run", tid, q1, q1.Add(msDur(o.status.RanMs)))
		queue = append(queue, o.status.QueueWaitMs)
		reqs = append(reqs, ms(o.done.Sub(o.due)))
		shard, _, _ := strings.Cut(o.status.ID, "job-")
		shards[shard]++
	}
	self := rec.selfMs()
	var parts float64
	for _, name := range []string{"client_wait", "http", "queue_wait", "run"} {
		v := median(self["station."+name])
		parts += v
		rep.add("station."+name+"_ms", v, "ms", len(self["station."+name]))
	}
	traced := median(reqs)
	rep.add("station.request_ms", traced, "ms", len(reqs))
	rep.notef("client_wait + http + queue_wait + run = %.3f ms, %.1f%% of the traced request median",
		parts, 100*parts/traced)
	rep.add("station.queue_wait_p90_ms", newDist(queue).quantile(0.9), "ms", len(queue))
	rep.add("station.refused_ratio", float64(refused)/float64(attempts), "ratio", attempts)
	rep.add("station.generator_late_ms", newDist(late).quantile(0.99), "ms", len(late))
	most := 0
	for _, n := range shards {
		most = max(most, n)
	}
	rep.add("fleet.shard_max_share", float64(most)/float64(len(reqs)), "ratio", len(reqs))
	return nil
}

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// envConfig mirrors repro.NewDeployment for the options the serve
// workloads set, so the offline ledger runs the rounds the station runs.
func envConfig(o repro.Options) wsn.Config {
	cfg := wsn.DefaultConfig(o.Nodes, o.Seed)
	if o.FieldSize > 0 {
		cfg.FieldSize = o.FieldSize
	}
	cfg.Radio.Ideal = o.Ideal
	return cfg
}

// offlineLedger runs the workload's queries directly on the round engine
// for window — each (kind, seed) untraced, then traced — to split a served
// query's run time into phases and count what its round put on the air.
func offlineLedger(rep *report, s serveSpec, window time.Duration,
	refs map[answerKey]repro.QueryAnswer, rec *spanRec) error {
	env, err := wsn.NewEnv(envConfig(s.deploy))
	if err != nil {
		return err
	}
	ccfg := core.DefaultConfig() // the serve workloads run the default cluster options
	pairs := s.pairs()
	led := &ledger{}
	clock := &phaseClock{}
	// query resets to the request's seed and answers it the way the
	// station's worker does; the returned times bracket core.New + RunQuery
	// and the counters are the round's.
	type run struct {
		out    core.QueryOutcome
		t0, t1 time.Time
		count  counters
	}
	query := func(a arrival, cfg core.Config, sink *phaseClock) (run, error) {
		t := time.Now()
		if err := env.Reset(a.Seed); err != nil {
			return run{}, err
		}
		led.resets = append(led.resets, ms(time.Since(t)))
		if sink != nil {
			env.SetSink(sink)
			defer env.SetSink(nil)
		}
		q := aggfunc.Query{Kind: aggKind(a.Kind), ReadingMin: env.Cfg.ReadingMin, ReadingMax: env.Cfg.ReadingMax}
		before := snapshot(env)
		r := run{t0: time.Now()}
		p, err := core.New(env, cfg)
		if err != nil {
			return r, err
		}
		r.out, err = p.RunQuery(q, 1)
		r.t1 = time.Now()
		r.count = snapshot(env).sub(before)
		return r, err
	}
	start := time.Now()
	for i := 0; i < 4 || time.Since(start) < window; i++ {
		a, sink := pairs[(i/2)%len(pairs)], (*phaseClock)(nil)
		if i%2 == 1 {
			sink = clock
		}
		r, err := query(a, ccfg, sink)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.notef("offline %s seed %d failed: %v", a.Kind, a.Seed, err)
			continue
		}
		if want := refs[answerKey{a.Kind, a.Seed}]; r.out.Value != want.Value || r.out.Accepted != want.Accepted {
			rep.wrongf("offline %s seed %d: %g accepted=%v, reference %g accepted=%v",
				a.Kind, a.Seed, r.out.Value, r.out.Accepted, want.Value, want.Accepted)
		}
		if sink != nil {
			clock.flush(rec, "core.round", fmt.Sprintf("query-%d", i), r.t0, r.t1, 0)
			led.traced = append(led.traced, ms(r.t1.Sub(r.t0)))
		} else {
			led.plain = append(led.plain, ms(r.t1.Sub(r.t0)))
			led.count(r.count, r.out.Results[0])
		}
	}
	serial := ccfg
	serial.Parallelism = 1
	r, err := query(pairs[0], serial, nil)
	if err != nil {
		return err
	}
	led.serialMs = ms(r.t1.Sub(r.t0))
	led.rows(rep, rec, true)
	return nil
}

// aggKind maps a query kind onto the round engine's, by name.
func aggKind(k repro.QueryKind) aggfunc.Kind {
	for ak := aggfunc.Sum; ak.Valid(); ak++ {
		if ak.String() == k.String() {
			return ak
		}
	}
	return 0
}
