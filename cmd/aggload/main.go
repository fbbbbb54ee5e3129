// Command aggload drives a closed-loop load test against a running aggd
// instance: N concurrent clients issue synchronous queries of mixed kinds
// back-to-back, honoring 503 backpressure with the server's retry hint.
//
// Usage:
//
//	aggload -addr http://localhost:8080 -c 8 -n 500
//	aggload -addr http://localhost:8080 -c 16 -d 30s -kinds sum,min,max
//
// Transport-level dial/reset failures are retried with capped backoff.
// The human-readable summary goes to stdout. Serving performance is
// tracked by the BenchmarkServeThroughput/shards=N benchmarks, not by this
// command.
//
// Exit status: 0 on a clean run, 1 if any request errored or the run could
// not start, 2 on bad flags.
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
	"repro/internal/cliutil"
	"repro/internal/station"
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
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return fs, err
	}
	if fs.NArg() > 0 {
		return fs, cliutil.Usagef("unexpected arguments: %v", fs.Args())
	}
	if err := cliutil.CheckMin("c", *conc, 1); err != nil {
		return fs, err
	}
	if *reqs < 0 {
		return fs, cliutil.Usagef("-n must not be negative, got %d", *reqs)
	}
	if *dur < 0 {
		return fs, cliutil.Usagef("-d must not be negative, got %v", *dur)
	}
	if *reqs == 0 && *dur == 0 {
		*reqs = 100
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
	rep, err := station.RunLoad(ctx, station.LoadConfig{
		BaseURL:     strings.TrimRight(*addr, "/"),
		Concurrency: *conc,
		Requests:    *reqs,
		Duration:    *dur,
		Kinds:       qkinds,
		Timeout:     *timeout,
	})
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
