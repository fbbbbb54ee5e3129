package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/station"
)

// testConfig is a small, fast per-shard template: 80 ideal-channel nodes
// keep one epoch in the low milliseconds.
func testConfig(shards, workers, queue int) Config {
	return Config{
		Shards: shards,
		Station: station.Config{
			Workers:    workers,
			QueueDepth: queue,
			Deploy:     repro.Options{Nodes: 80, Seed: 7, Ideal: true},
		},
	}
}

func newFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := f.Drain(ctx); err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	return f
}

// drainShard drains one shard of f, leaving the others serving.
func drainShard(t *testing.T, f *Fleet, i int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := f.Shard(i).Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// seedOn returns the first explicit seed whose kind query the ring places
// on shard: placement is deterministic in (kind, seed), so a test reaches
// every shard with ordinary queries.
func seedOn(t *testing.T, f *Fleet, kind repro.QueryKind, shard int) int64 {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		if f.Owner(station.QuerySpec{Kind: kind, Seed: seed, SeedSet: true}) == shard {
			return seed
		}
	}
	t.Fatalf("no seed below 1000 places %v on shard %d", kind, shard)
	return 0
}

// TestFleetSmoke is the `make fleet-smoke` gate: a 3-shard fleet must
// serve answers bit-identical to a single station AND to the offline
// deployment for the same seeds — on the hashed path and on every shard
// asked directly — and the consistent-hash placement must route identical
// queries to the same shard.
func TestFleetSmoke(t *testing.T) {
	cfg := testConfig(3, 1, 8)
	f := newFleet(t, cfg)

	// Ground truth 1: the offline deployment.
	dep, err := repro.NewDeployment(cfg.Station.Deploy)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dep.RunQuery(repro.QuerySum, repro.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth 2: a single station with the same template.
	single, err := station.New(cfg.Station)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = single.Drain(ctx)
	}()
	sjob, err := single.Submit(station.QuerySpec{Kind: repro.QuerySum})
	if err != nil {
		t.Fatal(err)
	}
	sans, err := sjob.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sans != want {
		t.Fatalf("single station diverged from offline: %+v != %+v", sans, want)
	}

	// The fleet, hashed path: bit-identical to both.
	spec := station.QuerySpec{Kind: repro.QuerySum}
	job, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ans != want {
		t.Fatalf("fleet answer diverged from offline: %+v != %+v", ans, want)
	}
	wantPrefix := fmt.Sprintf("s%d-", f.Owner(spec))
	if !strings.HasPrefix(job.ID(), wantPrefix) {
		t.Errorf("query landed on %s, ring owner is %s", job.ID(), wantPrefix)
	}
	// Identical query again: same shard (placement is deterministic).
	job2, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(job2.ID(), wantPrefix) {
		t.Errorf("repeat query moved shards: %s vs prefix %s", job2.ID(), wantPrefix)
	}

	// Every shard asked directly: bit-identical to the single station
	// (already held equal to offline above).
	for i := 0; i < f.Shards(); i++ {
		j, err := f.Shard(i).Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("shard %d job %s: %v", i, j.ID(), err)
		}
		if got != sans {
			t.Fatalf("shard %d diverged from the single station: %+v != %+v", i, got, sans)
		}
	}

	// Explicit seed 0 is serveable and distinct from the template stream.
	zero, err := dep0Answer(cfg.Station.Deploy)
	if err != nil {
		t.Fatal(err)
	}
	zjob, err := f.Submit(station.QuerySpec{Kind: repro.QuerySum, Seed: 0, SeedSet: true})
	if err != nil {
		t.Fatalf("explicit seed-0 query unserveable: %v", err)
	}
	zans, err := zjob.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if zans != zero {
		t.Fatalf("seed-0 answer diverged from offline seed-0: %+v != %+v", zans, zero)
	}
	if zans == want {
		t.Fatal("seed-0 answer identical to template-seed answer; explicit 0 still aliases the template")
	}
	if zjob.Seed() != 0 || zjob.Status().Seed != 0 {
		t.Errorf("seed-0 job reports seed %d / status seed %d, want 0", zjob.Seed(), zjob.Status().Seed)
	}

	// Job handles resolve through the coordinator.
	if f.Job(job.ID()) != job {
		t.Error("fleet failed to resolve a shard-prefixed job ID")
	}
	if f.Job("s9-job-1") != nil || f.Job("nope") != nil {
		t.Error("fleet resolved a nonexistent job ID")
	}

	m := scrapeFleet(t, f)
	if f.Shards() != 3 || m.Sum("agg_station_workers") != 3 {
		t.Errorf("fleet shape: %d shards, %v workers", f.Shards(), m.Sum("agg_station_workers"))
	}
	if done := m.Sum("agg_station_jobs_total", "outcome", "done"); done < 6 {
		t.Errorf("fleet-wide completed = %v, want >= 6", done)
	}
	if m.Sum("agg_station_worker_traffic_total", "field", "tx_bytes") == 0 {
		t.Error("fleet traffic is zero after served epochs")
	}
}

func dep0Answer(o repro.Options) (repro.QueryAnswer, error) {
	dep, err := repro.NewDeployment(o)
	if err != nil {
		return repro.QueryAnswer{}, err
	}
	if err := dep.Reset(0); err != nil {
		return repro.QueryAnswer{}, err
	}
	return dep.RunQuery(repro.QuerySum, repro.ClusterOptions{})
}

// TestFleetShedsToNextOwnerOnDrain: a draining ring owner must shed the
// query to its clockwise successor, not surface 503.
func TestFleetShedsToNextOwnerOnDrain(t *testing.T) {
	f := newFleet(t, testConfig(3, 1, 8))
	spec := station.QuerySpec{Kind: repro.QuerySum}
	owner := f.Owner(spec)
	drainShard(t, f, owner)
	job, err := f.Submit(spec)
	if err != nil {
		t.Fatalf("submit with draining owner: %v", err)
	}
	if strings.HasPrefix(job.ID(), fmt.Sprintf("s%d-", owner)) {
		t.Fatalf("job %s landed on the draining owner", job.ID())
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := scrapeFleet(t, f)["agg_fleet_shed_total"]; got != 1 {
		t.Errorf("shed counter = %v, want 1", got)
	}
}

// TestFleetComposesBackpressure: when every shard is full the fleet
// surfaces exactly ONE ErrQueueFull (one 503, one Retry-After over HTTP)
// instead of stacking per-shard rejections.
func TestFleetComposesBackpressure(t *testing.T) {
	cfg := testConfig(2, 1, 1)
	release := make(chan struct{})
	var parked atomic.Int64
	cfg.Station.RunningHook = func(*station.Job) {
		parked.Add(1)
		<-release
	}
	f := newFleet(t, cfg)
	defer close(release)

	// Two jobs park the two workers; two more fill both depth-1 queues
	// (the walk spreads them); the fifth must be the composed rejection.
	deadline := time.Now().Add(30 * time.Second)
	admitted := 0
	for admitted < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("only admitted %d/4 jobs", admitted)
		}
		if _, err := f.Submit(station.QuerySpec{Kind: repro.QuerySum, Seed: int64(admitted + 1)}); err == nil {
			admitted++
		} else if !errors.Is(err, station.ErrQueueFull) {
			t.Fatalf("unexpected submit error: %v", err)
		}
		// A submit can race a worker that hasn't parked yet; retry.
	}
	for parked.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	_, err := f.Submit(station.QuerySpec{Kind: repro.QuerySum, Seed: 99})
	if !errors.Is(err, station.ErrQueueFull) {
		t.Fatalf("fleet-full submit = %v, want ErrQueueFull", err)
	}
	if got := scrapeFleet(t, f)["agg_fleet_rejected_total"]; got < 1 {
		t.Errorf("composed rejections = %v, want >= 1", got)
	}
}

// TestFleetDrainSubmitCancelRace is the -race interleaving gate at the
// coordinator boundary: submitters, cancellers, and a drain all race, and
// afterwards every admitted job must still reach a terminal state with the
// fleet refusing new work.
func TestFleetDrainSubmitCancelRace(t *testing.T) {
	f, err := New(testConfig(2, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		jobs []*station.Job
	)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				job, err := f.Submit(station.QuerySpec{Kind: repro.QuerySum, Seed: int64(g*1000 + i)})
				if err != nil {
					if errors.Is(err, station.ErrQueueFull) || errors.Is(err, station.ErrDraining) {
						continue
					}
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				jobs = append(jobs, job)
				mu.Unlock()
				if i%3 == 0 {
					job.Cancel()
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	drainErr := f.Drain(ctx)
	close(stop)
	wg.Wait()
	if drainErr != nil {
		t.Fatalf("Drain: %v", drainErr)
	}
	if _, err := f.Submit(station.QuerySpec{Kind: repro.QuerySum}); !errors.Is(err, station.ErrDraining) {
		t.Errorf("submit after drain = %v, want ErrDraining", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, job := range jobs {
		select {
		case <-job.Done():
		default:
			t.Fatalf("job %s not terminal after drain", job.ID())
		}
	}
}

// TestFleetHealthDetail: the /healthz payload carries per-shard states.
func TestFleetHealthDetail(t *testing.T) {
	f := newFleet(t, testConfig(3, 1, 8))
	srv := httptest.NewServer(station.NewAPI(f).Handler())
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h station.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, h.Status)
	}
	if len(h.Shards) != 3 {
		t.Fatalf("healthz lists %d shards, want 3", len(h.Shards))
	}
	for i, sh := range h.Shards {
		if sh.ID != i || sh.State != station.ShardHealthy {
			t.Errorf("shard %d health = %+v", i, sh)
		}
	}

	// A drained shard degrades the fleet without failing the endpoint.
	drainShard(t, f, 2)
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "degraded" || h.Shards[2].State != "draining" {
		t.Fatalf("degraded healthz = %d %q %+v", resp.StatusCode, h.Status, h.Shards)
	}
}

// TestFleetSchedulesSpreadAndResolve: schedule registration fans out
// across shards, and handles resolve/remove through the coordinator.
func TestFleetSchedulesSpreadAndResolve(t *testing.T) {
	f := newFleet(t, testConfig(3, 1, 16))
	owners := map[string]bool{}
	ids := make([]string, 0, 9)
	for i := 0; i < 9; i++ {
		sc, err := f.AddSchedule(station.ScheduleSpec{Kind: repro.QuerySum, Period: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sc.ID())
		owners[sc.ID()[:3]] = true
		if f.Schedule(sc.ID()) != sc {
			t.Errorf("schedule %s does not resolve through the fleet", sc.ID())
		}
	}
	if len(owners) < 2 {
		t.Errorf("9 schedules all landed on one shard: %v", ids)
	}
	if got := len(f.ScheduleStatuses()); got != 9 {
		t.Errorf("fleet lists %d schedules, want 9", got)
	}
	for _, id := range ids {
		if !f.RemoveSchedule(id) {
			t.Errorf("RemoveSchedule(%s) = false", id)
		}
	}
	if got := len(f.ScheduleStatuses()); got != 0 {
		t.Errorf("%d schedules survive removal", got)
	}
}

// TestFleetSameKindSchedulesDistinctAcrossShards is the fleet-level
// seed-aliasing gate. Within one station, schedule ordinals keep same-kind
// schedules on disjoint epoch-seed streams (TestSameKindSchedulesServe-
// DistinctEpochs in internal/station) — but each shard's local ordinals
// restart at 1, so two same-kind schedules placed on DIFFERENT shards both
// drew ordinal 1 and served byte-identical epochs. The fleet must stamp a
// disjoint ScheduleOrdinalBase per shard so cross-shard pairs diverge too.
func TestFleetSameKindSchedulesDistinctAcrossShards(t *testing.T) {
	f := newFleet(t, testConfig(2, 1, 16))
	// Register same-kind schedules until two land on different shards
	// (ring placement spreads within a handful of ordinals); drop extras.
	byShard := map[string]*station.Schedule{}
	for i := 0; i < 32 && len(byShard) < 2; i++ {
		sc, err := f.AddSchedule(station.ScheduleSpec{Kind: repro.QuerySum, Period: 3 * time.Millisecond, Jitter: 0})
		if err != nil {
			t.Fatal(err)
		}
		shard := sc.ID()[:3] // "s0-", "s1-"
		if byShard[shard] != nil {
			f.RemoveSchedule(sc.ID())
			continue
		}
		byShard[shard] = sc
	}
	if len(byShard) < 2 {
		t.Fatal("32 schedules never spread across 2 shards")
	}
	firstAnswer := func(sc *station.Schedule) *repro.QueryAnswer {
		for _, r := range sc.Results() {
			if r.Epoch == 1 && r.Answer != nil {
				return r.Answer
			}
		}
		return nil
	}
	var pair []*station.Schedule
	for _, sc := range byShard {
		pair = append(pair, sc)
	}
	deadline := time.Now().Add(30 * time.Second)
	var ansA, ansB *repro.QueryAnswer
	for ansA == nil || ansB == nil {
		if time.Now().After(deadline) {
			t.Fatalf("schedules never served epoch 1: %v %v", ansA, ansB)
		}
		ansA, ansB = firstAnswer(pair[0]), firstAnswer(pair[1])
		time.Sleep(2 * time.Millisecond)
	}
	f.RemoveSchedule(pair[0].ID())
	f.RemoveSchedule(pair[1].ID())
	if *ansA == *ansB {
		t.Errorf("same-kind schedules on %s and %s served byte-identical epoch 1 (%v) — shard ordinal bases not disjoint",
			pair[0].ID(), pair[1].ID(), *ansA)
	}
}

// TestFleetHTTP drives the fleet through the stock station.API handler:
// the wire surface must be indistinguishable from a single station, a job
// handle must resolve back to its shard (and a bogus one must 404), and a
// plain query placed on the other shard must be served there.
func TestFleetHTTP(t *testing.T) {
	f := newFleet(t, testConfig(2, 1, 8))
	srv := httptest.NewServer(station.NewAPI(f).Handler())
	t.Cleanup(srv.Close)

	resp, err := http.Post(srv.URL+"/v1/query", "application/json",
		strings.NewReader(`{"kind":"sum"}`))
	if err != nil {
		t.Fatal(err)
	}
	var js station.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || js.State != "done" || js.Answer == nil {
		t.Fatalf("sync fleet query: %d %+v", resp.StatusCode, js)
	}
	if !strings.HasPrefix(js.ID, "s") {
		t.Errorf("fleet job ID %q not shard-prefixed", js.ID)
	}

	resp, err = http.Get(srv.URL + "/v1/jobs/" + js.ID)
	if err != nil {
		t.Fatal(err)
	}
	var polled station.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&polled); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || polled.ID != js.ID {
		t.Fatalf("fleet job poll: %d %+v", resp.StatusCode, polled)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/s0-job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("bogus job poll = %d, want 404", resp.StatusCode)
	}

	other := 1 - f.Owner(station.QuerySpec{Kind: repro.QuerySum})
	code, data := postJSON(t, srv.URL+"/v1/query",
		fmt.Sprintf(`{"kind":"sum","seed":%d}`, seedOn(t, f, repro.QuerySum, other)))
	if err := json.Unmarshal(data, &js); code != http.StatusOK || err != nil || js.Answer == nil {
		t.Fatalf("query placed on shard %d: %d %s", other, code, data)
	}
	if want := fmt.Sprintf("s%d-", other); !strings.HasPrefix(js.ID, want) {
		t.Errorf("job %s not served by its ring owner %s", js.ID, want)
	}

	m := scrapeURL(t, srv.URL)
	for _, shard := range []string{"0", "1"} {
		if got := m.Sum("agg_station_workers", "shard", shard); got != 1 {
			t.Errorf("shard %s workers = %v, want 1 (one series per shard)", shard, got)
		}
	}
	if done := m.Sum("agg_station_jobs_total", "outcome", "done"); done != 2 {
		t.Errorf("fleet-wide completed = %v, want 2", done)
	}
}

// TestRing covers the consistent-hash layer: total coverage of the walk,
// deterministic ownership, and a sane key spread.
func TestRing(t *testing.T) {
	r := newRing(4)
	counts := make([]int, 4)
	for i := 0; i < 4096; i++ {
		key := queryKey(int64(i%7+1), int64(i))
		owner := r.owner(key)
		counts[owner]++
		if again := r.owner(key); again != owner {
			t.Fatalf("owner(%d) flapped: %d then %d", key, owner, again)
		}
		walk := r.walk(key)
		if len(walk) != 4 || walk[0] != owner {
			t.Fatalf("walk = %v, want 4 shards led by owner %d", walk, owner)
		}
		seen := map[int]bool{}
		for _, s := range walk {
			if seen[s] {
				t.Fatalf("walk %v repeats shard %d", walk, s)
			}
			seen[s] = true
		}
	}
	for s, n := range counts {
		if n < 4096/4/4 {
			t.Errorf("shard %d owns only %d/4096 keys — ring badly unbalanced", s, n)
		}
	}
}
