// Command aggd is the base-station aggregation service: a standing HTTP
// daemon that serves one-shot and recurring aggregation queries from a pool
// of simulated deployments (see internal/station). With -shards it runs an
// in-process fleet of stations behind one consistent-hash coordinator
// (see internal/fleet).
//
// Usage:
//
//	aggd -addr :8080 -workers 4 -nodes 400 -seed 7
//	aggd -addr :8080 -shards 4 -workers 2            # in-process fleet
//	aggd -addr :8080 -shards 3 -traceout fleet.jsonl
//	curl -d '{"kind":"sum"}' http://localhost:8080/v1/query
//	curl -d '{"kind":"sum","fanout":true}' 'http://localhost:8080/v1/query?partial=1'
//	curl http://localhost:8080/metricsz
//
// -traceout streams per-request serve spans plus the fleet's degraded
// fan-out events as JSONL for aggtrace -why request <id>. ?partial=1 lets
// a fan-out degrade to the shards that admit it instead of failing.
//
// Every response carries an X-Agg-Request-Id header minted at ingress;
// /metricsz serves Prometheus text-format telemetry on every topology —
// the one counter surface:
// admission, job outcomes, protocol events, per-worker rounds and traffic,
// with -tracestats the workers' flight-recorder counts, and under -shards
// the fleet's own counters next to each shard's series (shard="i").
// -observe serves pprof on a second listener. Every listener cuts off
// clients that stall their headers or body (station.NewServer).
//
// SIGINT/SIGTERM trigger a graceful drain: the listener stops accepting,
// queued and in-flight epochs finish (bounded by -draintimeout), schedules
// stop, and trace sinks flush before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // /debug/pprof on the -observe endpoint
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/cliutil"
	"repro/internal/fleet"
	"repro/internal/station"
	"repro/internal/trace"
)

// listening, when non-nil, receives the bound listen address once the
// server is accepting. Test seam: lets tests boot run() on ":0" and learn
// the ephemeral port.
var listening func(addr string)

func main() {
	fs, err := run(os.Args[1:])
	cliutil.Exit("aggd", fs, err)
}

func run(args []string) (*flag.FlagSet, error) {
	fs := flag.NewFlagSet("aggd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "HTTP listen address (host:port)")
		shards     = fs.Int("shards", 1, "station shards behind an in-process fleet coordinator (1 = plain station)")
		workers    = fs.Int("workers", 4, "deployment pool size per shard")
		queue      = fs.Int("queue", 64, "admission queue depth per shard")
		keepjobs   = fs.Int("keepjobs", 1024, "finished jobs retained for polling")
		nodes      = fs.Int("nodes", 400, "nodes per worker deployment (including the base station)")
		field      = fs.Float64("field", 400, "square field side, meters")
		radio      = fs.Float64("range", 50, "radio range, meters")
		seed       = fs.Int64("seed", 1, "deployment template seed")
		ideal      = fs.Bool("ideal", false, "error-free channel")
		loss       = fs.Float64("loss", 0, "injected iid frame-loss rate in [0, 1)")
		timeout    = fs.Duration("timeout", 0, "per-job timeout, admission to completion (0 = none)")
		draintmo   = fs.Duration("draintimeout", 30*time.Second, "graceful-drain bound on shutdown")
		tracestats = fs.Bool("tracestats", false, "count every worker's flight-recorder events into /metricsz (agg_trace_*)")
		observe    = fs.String("observe", "", "serve pprof on this second address, e.g. :6060")
		traceout   = fs.String("traceout", "", "append request spans and fleet events to this JSONL file for aggtrace -why request")
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return fs, err
	}
	if fs.NArg() > 0 {
		return fs, cliutil.Usagef("unexpected arguments: %v", fs.Args())
	}
	if err := errors.Join(
		cliutil.CheckAddr("addr", *addr),
		cliutil.CheckMin("shards", *shards, 1),
		cliutil.CheckMin("workers", *workers, 1),
		cliutil.CheckMin("queue", *queue, 1),
		cliutil.CheckMin("keepjobs", *keepjobs, 1),
		cliutil.CheckMin("nodes", *nodes, 2),
		cliutil.CheckPositive("field", *field),
		cliutil.CheckPositive("range", *radio),
		cliutil.CheckRange("loss", *loss, 0, 0.999),
	); err != nil {
		return fs, err
	}
	if *timeout < 0 {
		return fs, cliutil.Usagef("-timeout must not be negative, got %v", *timeout)
	}
	if *draintmo <= 0 {
		return fs, cliutil.Usagef("-draintimeout must be positive, got %v", *draintmo)
	}
	if *observe != "" {
		if err := cliutil.CheckAddr("observe", *observe); err != nil {
			return fs, err
		}
	}

	stCfg := station.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		KeepJobs:   *keepjobs,
		JobTimeout: *timeout,
		TraceStats: *tracestats,
		// Trace is filled in below once the -traceout sink exists; every
		// topology shares one stream so request spans interleave with
		// fleet events.
		Deploy: repro.Options{
			Nodes:     *nodes,
			FieldSize: *field,
			Range:     *radio,
			Seed:      *seed,
			Ideal:     *ideal,
			LossRate:  *loss,
		},
	}

	// The JSONL sink, shared by every topology.
	var (
		sink       trace.Sink
		traceFlush func() error
	)
	if *traceout != "" {
		f, err := os.Create(*traceout)
		if err != nil {
			return fs, fmt.Errorf("-traceout: %w", err)
		}
		jl := trace.NewJSONL(f)
		sink = trace.NewLocked(jl)
		traceFlush = func() error { return jl.Close() } // flushes and closes f
		defer func() {
			if traceFlush != nil {
				_ = traceFlush()
			}
		}()
	}
	stCfg.Trace = sink

	// Build whichever topology was asked for. Both serve the identical HTTP
	// surface; only the /metricsz series differ.
	var (
		handler http.Handler
		drainer interface{ Drain(context.Context) error }
		banner  string
	)
	switch {
	case *shards > 1:
		fl, err := fleet.New(fleet.Config{Shards: *shards, Station: stCfg, Trace: sink})
		if err != nil {
			return fs, err
		}
		handler = station.NewAPI(fl).Handler()
		drainer = fl
		banner = fmt.Sprintf("%d shard(s) x %d workers, queue %d/shard, %d-node deployments, seed %d",
			*shards, *workers, *queue, *nodes, *seed)
	default:
		st, err := station.New(stCfg)
		if err != nil {
			return fs, err
		}
		handler = station.NewAPI(st).Handler()
		drainer = st
		banner = fmt.Sprintf("%d workers, queue %d, %d-node deployments, seed %d",
			*workers, *queue, *nodes, *seed)
	}

	if *observe != "" {
		if err := serveObserve(*observe); err != nil {
			return fs, err
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fs, fmt.Errorf("listen %s: %w", *addr, err)
	}
	srv := station.NewServer(handler)
	fmt.Printf("aggd: serving on http://%s (%s)\n", ln.Addr(), banner)
	if listening != nil {
		listening(ln.Addr().String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fs, fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way

	fmt.Fprintf(os.Stderr, "aggd: signal received, draining (bound %v)\n", *draintmo)
	dctx, cancel := context.WithTimeout(context.Background(), *draintmo)
	defer cancel()
	// Stop accepting and finish in-flight HTTP exchanges first, then let the
	// station(s) run every already-admitted epoch to completion and flush
	// sinks.
	if err := srv.Shutdown(dctx); err != nil {
		return fs, fmt.Errorf("http shutdown: %w", err)
	}
	if err := drainer.Drain(dctx); err != nil {
		return fs, fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "aggd: drained cleanly")
	return fs, nil
}

// serveObserve serves the stock pprof handlers on a second listener, kept
// off the serving address so profiling never competes with query traffic.
func serveObserve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-observe %s: %w", addr, err)
	}
	fmt.Printf("observe: pprof on http://%s/debug/pprof\n", ln.Addr())
	go func() {
		if err := station.NewServer(http.DefaultServeMux).Serve(ln); err != nil {
			fmt.Fprintln(os.Stderr, "aggd: observe:", err)
		}
	}()
	return nil
}
