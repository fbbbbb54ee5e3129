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
	"testing"
	"time"

	"repro"
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
