// Command aggtrace is the offline forensics viewer for flight-recorder
// traces written by aggsim -traceout (or repro.Deployment.TraceTo): it
// filters, summarises, and reconstructs what happened in a round and why.
//
//	aggtrace trace.jsonl                          # list every event
//	aggtrace -round 3 -cluster 7 trace.jsonl      # one cluster's round
//	aggtrace -summary trace.jsonl                 # counts by type/phase
//	aggtrace -timeline trace.jsonl                # phase windows + durations
//	aggtrace -lifecycle trace.jsonl               # per-cluster state machines
//	aggtrace -round 3 -why alarm trace.jsonl      # causal chain per alarm
//	aggtrace -why takeover trace.jsonl            # reconstructed takeovers
//	aggtrace -why drop trace.jsonl                # drops grouped by cause
//	aggtrace -why breach trace.jsonl              # attacker action → witness → verdict
//	aggtrace -why request <id> serve.jsonl        # one request's span tree
//	aggtrace -expect takeover trace.jsonl         # exit 1 unless present
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/topo"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aggtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		round     = fs.Int("round", -1, "restrict to one round (-1 = all)")
		cluster   = fs.Int("cluster", -1, "restrict to one cluster (its head's node id; -1 = all)")
		node      = fs.Int("node", -1, "restrict to one node (-1 = all)")
		typ       = fs.String("type", "", "restrict to one event type")
		phase     = fs.String("phase", "", "restrict to one protocol phase")
		summary   = fs.Bool("summary", false, "print event counts by type/phase/state")
		timeline  = fs.Bool("timeline", false, "print phase windows with durations")
		lifecycle = fs.Bool("lifecycle", false, "print per-cluster state-machine chains")
		why       = fs.String("why", "", "causal forensics: alarm, takeover, drop, breach, or request <id>")
		expect    = fs.String("expect", "", "exit nonzero unless a matching event of this type exists")
		maxCtx    = fs.Int("context", 40, "max context lines per -why chain (0 = unlimited)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	switch *why {
	case "", "alarm", "takeover", "drop", "breach", "request":
	default:
		fmt.Fprintf(stderr, "aggtrace: -why wants alarm, takeover, drop, breach, or request (got %q)\n", *why)
		return 2
	}
	// -why request consumes the first positional argument as the request
	// id; the trace file (if any) follows it.
	args := fs.Args()
	reqID := ""
	if *why == "request" {
		if len(args) == 0 {
			fmt.Fprintln(stderr, "aggtrace: -why request wants a request id")
			return 2
		}
		reqID, args = args[0], args[1:]
	}

	in := io.Reader(os.Stdin)
	if len(args) > 0 {
		f, err := os.Open(args[0])
		if err != nil {
			fmt.Fprintf(stderr, "aggtrace: %v\n", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	events, err := trace.ReadJSONL(in)
	if err != nil {
		fmt.Fprintf(stderr, "aggtrace: %v\n", err)
		return 1
	}

	q := trace.NewQuery()
	q.Round = *round
	if *cluster >= 0 {
		q.AnyCluster, q.Cluster = false, topo.NodeID(*cluster)
	}
	if *node >= 0 {
		q.AnyNode, q.Node = false, topo.NodeID(*node)
	}
	q.Type = *typ
	q.Phase = *phase

	if *expect != "" {
		eq := q
		eq.Type = *expect
		n := len(trace.Select(events, eq))
		if n == 0 {
			fmt.Fprintf(stderr, "aggtrace: no %q events match\n", *expect)
			return 1
		}
		fmt.Fprintf(stdout, "%d %q events match\n", n, *expect)
		return 0
	}

	switch {
	case *why == "request":
		if err := trace.WriteRequestTree(stdout, events, reqID); err != nil {
			fmt.Fprintf(stderr, "aggtrace: %v\n", err)
			return 1
		}
	case *why != "":
		var chains []trace.Chain
		switch *why {
		case "alarm":
			chains = trace.AlarmChains(events, q)
		case "takeover":
			chains = trace.TakeoverChains(events, q)
		case "drop":
			chains = trace.DropChains(events, q)
		case "breach":
			chains = trace.BreachChains(events, q)
		}
		if len(chains) == 0 {
			fmt.Fprintf(stdout, "no %s events match\n", *why)
			return 0
		}
		trace.WriteChains(stdout, chains, *maxCtx)
	case *summary:
		trace.Summarize(events, q).Write(stdout)
	case *timeline:
		trace.WriteTimeline(stdout, trace.Timeline(events, q))
	case *lifecycle:
		trace.WriteLifecycles(stdout, trace.Lifecycles(events, q))
	default:
		for _, e := range trace.Select(events, q) {
			fmt.Fprintln(stdout, e.String())
		}
	}
	return 0
}
