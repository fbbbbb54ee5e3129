package repro_test

// Serving-layer scaling benchmark: BenchmarkServeThroughput/shards=N boots
// an in-process fleet of N station shards behind the real HTTP API and
// drives the closed-loop load client through it, so benchtrend tracks
// end-to-end serving throughput per shard count alongside the simulator
// benchmarks. This lives outside package repro because the fleet imports
// repro; an internal benchmark would be an import cycle.
//
// The shape of the curve is hardware-dependent: shards multiply worker
// pools, so the win shows on multi-core boxes; a single-core container
// pins the knee at 1 shard (the same caveat the station pool benchmark
// carries).

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/station"
)

func BenchmarkServeThroughput(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			fl, err := fleet.New(fleet.Config{
				Shards: n,
				Station: station.Config{
					Workers:    2,
					QueueDepth: 64,
					Deploy:     repro.Options{Nodes: 80, Seed: 7, Ideal: true},
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			srv := httptest.NewServer(station.NewAPI(fl).Handler())
			defer srv.Close()
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				if err := fl.Drain(ctx); err != nil {
					b.Error(err)
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			rep, err := station.RunLoad(context.Background(), station.LoadConfig{
				BaseURL:     srv.URL,
				Concurrency: 2 * n,
				Requests:    b.N,
				Kinds:       []repro.QueryKind{repro.QuerySum},
				Timeout:     time.Minute,
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if rep.Errors > 0 {
				b.Fatalf("%d load errors (samples: %v)", rep.Errors, rep.ErrSamples)
			}
			b.ReportMetric(rep.Throughput, "req/s")
		})
	}
}

// BenchmarkServeRecovery runs the canonical availability drill — crash one
// of three shards mid-burst with a real kill, let the supervisor rebuild
// it — and reports the down→healthy recovery span as the benchmark's
// ns/op, so benchtrend gates on recovery-time regressions the same way it
// gates on throughput. The wall-clock per op is the drill length, not the
// metric; ReportMetric overrides ns/op with the recovery time.
//
// An op is a fixed-length burst, so allocs/op counts queries served as much
// as it counts allocation. The bench reports "allocs/query" instead:
// allocations over the whole drill, fleet setup included, divided by the
// queries it served. benchtrend gates this benchmark on that metric.
func BenchmarkServeRecovery(b *testing.B) {
	cfg := fleet.Config{
		Shards: 3,
		Station: station.Config{
			Workers:    1,
			QueueDepth: 32,
			Deploy:     repro.Options{Nodes: 80, Seed: 7, Ideal: true},
		},
	}
	var totalRecovery time.Duration
	var served int64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := chaos.Plan{Seed: 7, Faults: []chaos.Window{{
			Shard: 2, Kind: chaos.KindCrash,
			At: chaos.Duration(200 * time.Millisecond), Dwell: chaos.Duration(300 * time.Millisecond),
			Kill: true,
		}}}
		rep, err := fleet.RunChaos(context.Background(), cfg, plan, station.LoadConfig{
			Concurrency: 4,
			Duration:    2500 * time.Millisecond,
			Kinds:       []repro.QueryKind{repro.QuerySum},
			Timeout:     time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Load.Wrong > 0 {
			b.Fatalf("%d wrong answers under fault injection", rep.Load.Wrong)
		}
		if !rep.Recovered {
			b.Fatal("crashed shard never returned to healthy within the drill")
		}
		totalRecovery += rep.Recovery
		served += rep.Load.Requests
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(totalRecovery.Nanoseconds())/float64(b.N), "ns/op")
	if served > 0 {
		b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(served), "allocs/query")
	}
}
