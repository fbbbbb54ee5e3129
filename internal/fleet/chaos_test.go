package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/station"
	"repro/internal/trace"
)

// TestChaosSmoke is the `make chaos-smoke` gate: a seeded plan crashes one
// of three shards mid-burst with a real kill, and the fleet must (a) keep
// availability at 99%+ on the hashed path, (b) never serve an answer that
// differs from the offline reference, (c) re-admit the shard, and (d)
// leave an event log from which aggtrace -why outage reconstructs the
// crash → down → restarting → healthy chain, round-trippable through JSONL.
func TestChaosSmoke(t *testing.T) {
	cfg := testConfig(3, 1, 32)
	plan := chaos.Plan{Seed: 7, Faults: []chaos.Window{{
		Shard: 2, Kind: chaos.KindCrash,
		At:    chaos.Duration(200 * time.Millisecond),
		Dwell: chaos.Duration(300 * time.Millisecond),
		Kill:  true,
	}}}
	rep, err := RunChaos(context.Background(), cfg, plan, station.LoadConfig{
		Concurrency: 4,
		Duration:    2500 * time.Millisecond,
		Kinds:       []repro.QueryKind{repro.QuerySum, repro.QueryMin},
		Timeout:     time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(ChaosSummary(rep))

	if rep.Availability < 0.99 {
		t.Errorf("availability = %.4f, want >= 0.99 (errors: %v)",
			rep.Availability, rep.Load.ErrSamples)
	}
	if rep.Load.Wrong != 0 {
		t.Errorf("%d served answers diverged from the offline reference", rep.Load.Wrong)
	}
	if !rep.Recovered {
		t.Fatal("killed shard never rejoined the rotation")
	}
	if rep.Restarts < 1 {
		t.Errorf("restarts = %d, want >= 1", rep.Restarts)
	}

	// The incident must reconstruct from the events alone — and survive a
	// JSONL round trip, because that is how aggd -traceout hands the log to
	// aggtrace -why outage.
	var buf bytes.Buffer
	jl := trace.NewJSONL(&buf)
	for _, ev := range rep.Events {
		jl.Emit(ev)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(rep.Events) {
		t.Fatalf("JSONL round trip lost events: %d -> %d", len(rep.Events), len(replayed))
	}
	chains := trace.OutageChains(replayed, trace.NewQuery())
	if len(chains) == 0 {
		t.Fatal("OutageChains reconstructed nothing from the drill")
	}
	chain := chains[0]
	if chain.Culprit.Type != trace.TypeFault || chain.Culprit.Cause != chaos.KindCrash {
		t.Errorf("chain culprit = %s/%s, want the injected crash", chain.Culprit.Type, chain.Culprit.Cause)
	}
	want := []string{trace.ShardDown, trace.ShardRestarting, trace.ShardHealthy}
	idx := 0
	for _, ev := range chain.Context {
		if idx < len(want) && ev.Type == trace.TypeShard && ev.Cause == want[idx] {
			idx++
		}
	}
	if idx != len(want) {
		t.Errorf("chain shows %d/%d of down -> restarting -> healthy; events: %d", idx, len(want), len(chain.Context))
	}
}

// TestChaosShardOutOfRangeRejected: fleet.New refuses a fault window
// aimed past the last shard (it would never fire), while the last shard
// and AllShards stay valid targets.
func TestChaosShardOutOfRangeRejected(t *testing.T) {
	for _, tc := range []struct {
		shard int
		ok    bool
	}{{3, false}, {2, true}, {chaos.AllShards, true}} {
		ctl, err := chaos.NewController(chaos.Plan{Seed: 7, Faults: []chaos.Window{{
			Shard: tc.shard, Kind: chaos.KindCrash, At: chaos.Duration(time.Hour),
		}}})
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(3, 1, 8)
		cfg.Chaos = ctl
		if !tc.ok {
			if f, err := New(cfg); err == nil {
				_ = f.Drain(context.Background())
				t.Errorf("shard %d on a 3-shard fleet accepted", tc.shard)
			}
			continue
		}
		newFleet(t, cfg)
	}
}

// TestFleetDrainSubmitAllRace is satellite coverage at the fan-out seam:
// SubmitAll races Drain under -race, and every call must either admit on
// EVERY shard before the drain completes or surface exactly one composed
// rejection — never a partial fan-out, never a stacked error.
func TestFleetDrainSubmitAllRace(t *testing.T) {
	f, err := New(testConfig(2, 1, 8))
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
				admitted, missing, err := f.SubmitAll(station.QuerySpec{Kind: repro.QuerySum, Seed: int64(g*1000 + i)}, false)
				if err != nil {
					if !errors.Is(err, station.ErrQueueFull) && !errors.Is(err, station.ErrDraining) &&
						!errors.Is(err, station.ErrUnavailable) {
						t.Errorf("SubmitAll surfaced a non-composed error: %v", err)
						return
					}
					if admitted != nil {
						t.Error("rejected fan-out leaked job handles")
					}
					continue
				}
				if len(missing) != 0 || len(admitted) != f.Shards() {
					t.Errorf("strict fan-out admitted %d/%d with missing=%v", len(admitted), f.Shards(), missing)
				}
				mu.Lock()
				jobs = append(jobs, admitted...)
				mu.Unlock()
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
	if _, _, err := f.SubmitAll(station.QuerySpec{Kind: repro.QuerySum}, false); !errors.Is(err, station.ErrDraining) {
		t.Errorf("SubmitAll after drain = %v, want ONE ErrDraining", err)
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

// TestFleetPartialFanoutDegrades: with a shard held down, strict fan-out
// refuses while ?partial-style fan-out serves the survivors and names the
// missing ordinal, counting the degraded answer.
func TestFleetPartialFanoutDegrades(t *testing.T) {
	col := &trace.Collector{}
	cfg := testConfig(3, 1, 8)
	cfg.Trace = col
	f := newFleet(t, cfg)
	f.slots[1].setState(trace.ShardDown) // supervisor isn't running; pin it

	if _, _, err := f.SubmitAll(station.QuerySpec{Kind: repro.QuerySum}, false); !errors.Is(err, station.ErrUnavailable) {
		t.Fatalf("strict fan-out with a down shard = %v, want ErrUnavailable", err)
	}
	jobs, missing, err := f.SubmitAll(station.QuerySpec{Kind: repro.QuerySum}, true)
	if err != nil {
		t.Fatalf("partial fan-out: %v", err)
	}
	if len(jobs) != 2 || len(missing) != 1 || missing[0] != 1 {
		t.Fatalf("partial fan-out = %d jobs, missing %v; want 2 jobs, missing [1]", len(jobs), missing)
	}
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := scrapeFleet(t, f)["agg_fleet_degraded_total"]; got != 1 {
		t.Errorf("degraded counter = %v, want 1", got)
	}
	found := false
	for _, ev := range col.Events() {
		if ev.Type == trace.TypeDegraded {
			found = true
		}
	}
	if !found {
		t.Error("no degraded event emitted for the partial fan-out")
	}
	f.slots[1].setState(trace.ShardHealthy) // let Drain see a clean fleet
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
		if sh.ID != i || sh.State != trace.ShardHealthy {
			t.Errorf("shard %d health = %+v", i, sh)
		}
	}

	// A down shard degrades the fleet without failing the endpoint.
	f.slots[2].setState(trace.ShardDown)
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "degraded" || h.Shards[2].State != trace.ShardDown {
		t.Fatalf("degraded healthz = %d %q %+v", resp.StatusCode, h.Status, h.Shards)
	}
	f.slots[2].setState(trace.ShardHealthy)
}

// TestChaosDisabledCostsNothing: with no controller configured, the chaos
// seam on the serve hot path is one nil check — zero allocations.
func TestChaosDisabledCostsNothing(t *testing.T) {
	f := newFleet(t, testConfig(2, 1, 8))
	if n := testing.AllocsPerRun(200, func() { _ = f.gate(0) }); n != 0 {
		t.Errorf("disabled chaos gate allocates %.1f/op on the serve hot path", n)
	}
}
