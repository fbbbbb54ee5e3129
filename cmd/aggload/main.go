// Command aggload drives a closed-loop load test against a running aggd
// instance: N concurrent clients issue synchronous queries of mixed kinds
// back-to-back, honoring 503 backpressure with the server's retry hint.
//
// Usage:
//
//	aggload -addr http://localhost:8080 -c 8 -n 500
//	aggload -addr http://localhost:8080 -c 16 -d 30s -kinds sum,min,max
//	aggload -chaos auto -seed 7 -nodes 80 -ideal -traceout fleet.jsonl
//
// -chaos runs an availability drill instead: it boots an in-process
// 3-shard fleet, arms a fault plan ("auto" = kill shard 2 mid-burst;
// otherwise a plan file), verifies every served answer against the
// offline reference, and reports availability, down->healthy recovery
// time, and retry counts. Transport-level dial/reset failures are retried
// with capped backoff in both modes; -traceout writes the fleet events for
// aggtrace -why outage.
//
// The human-readable summary goes to stdout. Serving performance is
// tracked by the BenchmarkServeThroughput/shards=N and
// BenchmarkServeRecovery benchmarks, not by this command.
//
// Exit status: 0 on a clean run, 1 if any request errored (in -chaos mode
// only a wrong answer fails — injected-fault errors are the experiment)
// or the run could not start, 2 on bad flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/cliutil"
	"repro/internal/fleet"
	"repro/internal/station"
	"repro/internal/trace"
)

func main() {
	fs, err := run(os.Args[1:], os.Stdout)
	cliutil.Exit("aggload", fs, err)
}

// errRequestsFailed maps "the burst ran but some requests errored" to exit 1.
var errRequestsFailed = errors.New("load run finished with request errors")

func run(args []string, stdout io.Writer) (*flag.FlagSet, error) {
	fs := flag.NewFlagSet("aggload", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "http://localhost:8080", "base URL of the aggd instance")
		conc    = fs.Int("c", 8, "concurrent closed-loop clients")
		reqs    = fs.Int("n", 0, "total requests (default 100 when -d is unset)")
		dur     = fs.Duration("d", 0, "run for a duration instead of a request count")
		kinds   = fs.String("kinds", "", "comma-separated query kinds (default: all)")
		timeout = fs.Duration("timeout", 30*time.Second, "per-request timeout")

		// Chaos mode: availability drill over an in-process 3-shard fleet
		// under a fault plan, with every served answer verified offline.
		workers  = fs.Int("workers", 2, "chaos: deployment pool size per shard")
		queue    = fs.Int("queue", 64, "chaos: admission queue depth per shard")
		nodes    = fs.Int("nodes", 400, "chaos: nodes per worker deployment")
		seed     = fs.Int64("seed", 1, "chaos: deployment template seed")
		ideal    = fs.Bool("ideal", false, "chaos: error-free channel")
		chaosArg = fs.String("chaos", "", "run an availability drill: a fault-plan JSON file, or 'auto' for the canonical crash-one-shard plan")
		traceout = fs.String("traceout", "", "chaos: also write the fleet's incident events to this JSONL file for aggtrace -why outage")
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return fs, err
	}
	if fs.NArg() > 0 {
		return fs, cliutil.Usagef("unexpected arguments: %v", fs.Args())
	}
	if err := errors.Join(
		cliutil.CheckMin("c", *conc, 1),
		cliutil.CheckMin("workers", *workers, 1),
		cliutil.CheckMin("queue", *queue, 1),
		cliutil.CheckMin("nodes", *nodes, 2),
	); err != nil {
		return fs, err
	}
	if *reqs < 0 {
		return fs, cliutil.Usagef("-n must not be negative, got %d", *reqs)
	}
	if *dur < 0 {
		return fs, cliutil.Usagef("-d must not be negative, got %v", *dur)
	}
	if *reqs == 0 && *dur == 0 {
		if *chaosArg != "" {
			*dur = 10 * time.Second // a drill needs a time axis for its fault windows
		} else {
			*reqs = 100
		}
	}
	if *timeout <= 0 {
		return fs, cliutil.Usagef("-timeout must be positive, got %v", *timeout)
	}
	if !strings.HasPrefix(*addr, "http://") && !strings.HasPrefix(*addr, "https://") {
		return fs, cliutil.Usagef("-addr must be an http(s) base URL, got %q", *addr)
	}

	var qkinds []repro.QueryKind
	if *kinds != "" {
		for _, name := range strings.Split(*kinds, ",") {
			k, err := repro.ParseQueryKind(name)
			if err != nil {
				return fs, cliutil.Usagef("-kinds: %v", err)
			}
			qkinds = append(qkinds, k)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	load := station.LoadConfig{
		Concurrency: *conc,
		Requests:    *reqs,
		Duration:    *dur,
		Kinds:       qkinds,
		Timeout:     *timeout,
	}

	if *chaosArg == "" {
		load.BaseURL = strings.TrimRight(*addr, "/")
		rep, err := station.RunLoad(ctx, load)
		if err != nil {
			return fs, err
		}
		fmt.Fprintln(stdout, rep)
		if rep.Errors > 0 {
			return fs, fmt.Errorf("%w: %d of %d (samples: %v)",
				errRequestsFailed, rep.Errors, rep.Requests+rep.Errors, rep.ErrSamples)
		}
		return fs, nil
	}

	const shards = 3
	var plan chaos.Plan
	if *chaosArg == "auto" {
		run := *dur
		if run == 0 {
			run = 10 * time.Second // -n mode: anchor the windows anyway
		}
		plan = chaos.CrashOnePlan(*seed, shards-1, run)
	} else {
		var err error
		if plan, err = chaos.LoadPlan(*chaosArg); err != nil {
			return fs, err
		}
	}
	cfg := fleet.Config{Shards: shards, Station: station.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		Deploy: repro.Options{
			Nodes: *nodes,
			Seed:  *seed,
			Ideal: *ideal,
		},
	}}
	rep, err := fleet.RunChaos(ctx, cfg, plan, load)
	if err != nil {
		return fs, err
	}
	fmt.Fprintln(stdout, fleet.ChaosSummary(rep))
	if *traceout != "" {
		if err := writeEvents(*traceout, rep.Events); err != nil {
			return fs, err
		}
	}
	if rep.Load.Wrong > 0 {
		return fs, fmt.Errorf("%w: %d served answers diverged from the offline reference",
			errRequestsFailed, rep.Load.Wrong)
	}
	return fs, nil
}

// writeEvents persists a drill's incident events as JSONL so aggtrace
// -why outage can reconstruct the crash → down → restart chain offline.
func writeEvents(path string, events []trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	jl := trace.NewJSONL(f)
	for _, ev := range events {
		jl.Emit(ev)
	}
	return jl.Close() // flushes and closes f
}
