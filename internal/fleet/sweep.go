package fleet

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/benchio"
	"repro/internal/station"
)

// SweepPoint is one shard count's measured serving performance.
type SweepPoint struct {
	Shards  int                `json:"shards"`
	Report  station.LoadReport `json:"report"`
	Speedup float64            `json:"speedup"` // throughput vs the first point
}

// RunSweep boots an in-process fleet per shard count, drives the same
// closed-loop burst through each over a real TCP listener, and reports
// throughput per count — the measurement that locates the scaling knee.
// The per-shard station config is held constant, so shards=N means N full
// worker pools; client concurrency scales with the shard count so the
// closed loop can keep a bigger fleet saturated.
func RunSweep(ctx context.Context, base Config, shardCounts []int, load station.LoadConfig) ([]SweepPoint, error) {
	if len(shardCounts) == 0 {
		return nil, fmt.Errorf("fleet: sweep needs at least one shard count")
	}
	baseConc := load.Concurrency
	if baseConc <= 0 {
		baseConc = 4
	}
	points := make([]SweepPoint, 0, len(shardCounts))
	for _, n := range shardCounts {
		if n < 1 {
			return nil, fmt.Errorf("fleet: shard count must be positive, got %d", n)
		}
		cfg := base
		cfg.Shards = n
		rep, err := runOne(ctx, cfg, load, baseConc*n)
		if err != nil {
			return nil, fmt.Errorf("fleet: sweep shards=%d: %w", n, err)
		}
		pt := SweepPoint{Shards: n, Report: rep}
		if len(points) > 0 && points[0].Report.Throughput > 0 {
			pt.Speedup = rep.Throughput / points[0].Report.Throughput
		} else {
			pt.Speedup = 1
		}
		points = append(points, pt)
	}
	return points, nil
}

func runOne(ctx context.Context, cfg Config, load station.LoadConfig, conc int) (station.LoadReport, error) {
	fl, err := New(cfg)
	if err != nil {
		return station.LoadReport{}, err
	}
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		_ = fl.Drain(dctx)
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return station.LoadReport{}, err
	}
	srv := station.NewServer(station.NewAPI(fl).Handler())
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	load.BaseURL = "http://" + ln.Addr().String()
	load.Concurrency = conc
	return station.RunLoad(ctx, load)
}

// SweepSnapshot renders the sweep as a benchio snapshot: one
// BenchmarkServeThroughput/shards=N point per count (ns of wall-clock per
// completed request, the same encoding the single-station load driver
// uses), so benchtrend tracks fleet scaling like any other benchmark.
func SweepSnapshot(points []SweepPoint, date, goVersion, host string) benchio.Snapshot {
	snap := benchio.Snapshot{
		Date:       date,
		GoVersion:  goVersion,
		Host:       host,
		Benchmarks: map[string]benchio.Metrics{},
	}
	for _, pt := range points {
		perReq := 0.0
		if pt.Report.Requests > 0 {
			perReq = float64(pt.Report.Elapsed.Nanoseconds()) / float64(pt.Report.Requests)
		}
		snap.Benchmarks[fmt.Sprintf("BenchmarkServeThroughput/shards=%d", pt.Shards)] =
			benchio.Metrics{NsPerOp: perReq}
	}
	return snap
}

// SweepSummary renders the human-readable scaling table with the knee
// marked: the last shard count whose marginal throughput gain over the
// previous point still exceeds 20%.
func SweepSummary(points []SweepPoint) string {
	var b strings.Builder
	knee := 0
	for i, pt := range points {
		if i == 0 || pt.Report.Throughput > points[i-1].Report.Throughput*1.2 {
			knee = i
		}
	}
	fmt.Fprintf(&b, "%-8s %12s %10s %10s %10s\n", "shards", "req/s", "speedup", "p50", "p99")
	for i, pt := range points {
		mark := ""
		if i == knee {
			mark = "  <- knee"
		}
		fmt.Fprintf(&b, "%-8d %12.1f %9.2fx %10v %10v%s\n",
			pt.Shards, pt.Report.Throughput, pt.Speedup,
			pt.Report.P50.Round(time.Microsecond), pt.Report.P99.Round(time.Microsecond), mark)
	}
	fmt.Fprintf(&b, "scaling knee at %d shard(s)", points[knee].Shards)
	return b.String()
}
