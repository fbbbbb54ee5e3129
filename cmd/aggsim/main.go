// Command aggsim runs a single aggregation round of one protocol on a fresh
// deployment and prints the base station's view.
//
// Usage:
//
//	aggsim -protocol cluster -nodes 400 -seed 7
//	aggsim -protocol tag -nodes 600 -ideal
//	aggsim -protocol ipda -slices 3 -count
//	aggsim -protocol sdap -polluter 9 -delta 5000
//	aggsim -protocol cluster -polluter auto -delta 5000 -localize
//	aggsim -rounds 20 -attack collude:2,tamper -observe :6060
//
// -observe serves /metricsz (the run's flight-recorder counts, plus the
// campaign's counters under -attack) and pprof while the run is in
// flight, and prints the final exposition when it ends.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // /debug/pprof on the -observe endpoint
	"os"
	"strings"

	"repro"
	"repro/internal/attack"
	"repro/internal/cliutil"
	"repro/internal/station"
	"repro/internal/telemetry"
)

// protocols is the one list of -protocol names: the flag help, validate and
// the dispatch all read it. Only the cluster protocol runs -rounds,
// -attack and -localize (validate enforces the first two); those paths
// branch off before the table.
var protocols = []struct {
	name string
	run  func(*repro.Deployment, runOpts) (repro.Result, error)
}{
	{"cluster", func(d *repro.Deployment, o runOpts) (repro.Result, error) { return d.RunCluster(o.cluster) }},
	{"tag", func(d *repro.Deployment, _ runOpts) (repro.Result, error) { return d.RunTAG() }},
	{"ipda", func(d *repro.Deployment, o runOpts) (repro.Result, error) {
		return d.RunIPDA(repro.IPDAOptions{Slices: o.slices,
			Polluter: o.cluster.Polluter, PollutionDelta: o.cluster.PollutionDelta})
	}},
	{"sdap", func(d *repro.Deployment, o runOpts) (repro.Result, error) {
		return d.RunSDAP(repro.SDAPOptions{Polluter: o.cluster.Polluter, PollutionDelta: o.cluster.PollutionDelta})
	}},
}

// runOpts carries the parsed flags a protocol runner reads. The cluster
// options also hold the attacker and delta every protocol shares.
type runOpts struct {
	cluster repro.ClusterOptions
	slices  int
}

// runnerFor returns the table's runner for name, or nil for an unknown name.
func runnerFor(name string) func(*repro.Deployment, runOpts) (repro.Result, error) {
	for _, p := range protocols {
		if p.name == name {
			return p.run
		}
	}
	return nil
}

// protocolNames renders the table's names for help and error text.
func protocolNames() string {
	names := make([]string, len(protocols))
	for i, p := range protocols {
		names[i] = p.name
	}
	return strings.Join(names, " | ")
}

func main() {
	fs, err := run(os.Args[1:])
	cliutil.Exit("aggsim", fs, err)
}

func run(args []string) (*flag.FlagSet, error) {
	fs := flag.NewFlagSet("aggsim", flag.ContinueOnError)
	var (
		protocol = fs.String("protocol", "cluster", "protocol: "+protocolNames())
		nodes    = fs.Int("nodes", 400, "total nodes including the base station")
		field    = fs.Float64("field", 400, "square field side, meters")
		radio    = fs.Float64("range", 50, "radio range, meters")
		seed     = fs.Int64("seed", 1, "simulation seed")
		ideal    = fs.Bool("ideal", false, "error-free channel")
		loss     = fs.Float64("loss", 0, "injected iid frame-loss rate in [0, 1)")
		noarq    = fs.Bool("noarq", false, "disable MAC retransmissions")
		nodeg    = fs.Bool("nodegrade", false, "disable degraded subset recovery (cluster protocol)")
		crash    = fs.Float64("crash", 0, "fraction of nodes fail-stopping mid-round (cluster protocol)")
		hcrash   = fs.Float64("headcrash", 0, "per-round head fail-stop probability (cluster protocol)")
		rounds   = fs.Int("rounds", 1, "measurement rounds on one cluster formation (cluster protocol)")
		nofail   = fs.Bool("nofailover", false, "disable deputy head-failover (cluster protocol)")
		recov    = fs.Bool("recover", false, "crashed nodes reboot at the next repair window (cluster protocol)")
		count    = fs.Bool("count", false, "COUNT query (unit readings)")
		grid     = fs.Bool("grid", false, "jittered-grid deployment")
		pc       = fs.Float64("pc", 0, "cluster-head probability (cluster protocol)")
		slices   = fs.Int("slices", 0, "slices per tree (ipda)")
		polluter = fs.String("polluter", "", "attacker node ID, or 'auto'")
		attackS  = fs.String("attack", "", "adversary campaign spec: comma-separated policies (collude:N[:px] | tamper | echo | replay | sybil[:N] | takeover); cluster protocol only")
		delta    = fs.Int64("delta", 1000, "pollution delta")
		localize = fs.Bool("localize", false, "run O(log N) attacker localization")
		traceCap = fs.Int("trace", 0, "record and dump up to N protocol trace events")
		traceOut = fs.String("traceout", "", "stream the flight recording as JSONL to this file (read it with aggtrace)")
		observe  = fs.String("observe", "", "serve live run metrics (/metricsz) and pprof on this address, e.g. :6060")
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return fs, err
	}
	if fs.NArg() > 0 {
		return fs, cliutil.Usagef("unexpected arguments: %v", fs.Args())
	}
	if err := validate(*nodes, *field, *radio, *loss, *crash, *hcrash,
		*pc, *rounds, *slices, *traceCap, *observe, *protocol); err != nil {
		return fs, err
	}
	if *attackS != "" {
		if *protocol != "cluster" {
			return fs, cliutil.Usagef("-attack applies to the cluster protocol only")
		}
		if *localize || *polluter != "" {
			return fs, cliutil.Usagef("-attack composes its own adversaries; drop -localize/-polluter")
		}
		if _, err := attack.ParseSpec(*attackS); err != nil {
			return fs, cliutil.Usagef("%v", err)
		}
	}
	simulate := func() error {
		opts := repro.Options{
			Nodes:      *nodes,
			FieldSize:  *field,
			Range:      *radio,
			Seed:       *seed,
			Ideal:      *ideal,
			CountQuery: *count,
			Grid:       *grid,
			LossRate:   *loss,
			NoARQ:      *noarq,
		}

		attacker := 0
		if *polluter == "auto" {
			id, err := repro.PickPolluter(opts, false)
			if err != nil {
				return err
			}
			if id <= 0 {
				return fmt.Errorf("no suitable attacker in this topology")
			}
			attacker = id
			fmt.Printf("auto-selected polluter: node %d\n", attacker)
		} else if *polluter != "" {
			if _, err := fmt.Sscanf(*polluter, "%d", &attacker); err != nil {
				return fmt.Errorf("bad -polluter %q: %w", *polluter, err)
			}
		}

		dep, err := repro.NewDeployment(opts)
		if err != nil {
			return err
		}
		var dumpTrace func(io.Writer) error
		if *traceCap > 0 {
			dumpTrace = dep.EnableTrace(*traceCap)
		}
		var closeTrace func() error
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			closeTrace = dep.TraceTo(f)
			defer func() {
				if err := closeTrace(); err != nil {
					fmt.Fprintln(os.Stderr, "aggsim: trace stream:", err)
				}
			}()
		}
		var reg *telemetry.Registry
		if *observe != "" {
			reg = telemetry.NewRegistry()
			dep.TraceCounts(reg)
			if err := serveObserve(*observe, reg); err != nil {
				return err
			}
		}
		fmt.Printf("deployment: %d nodes, avg degree %.1f, connected=%v, true sum %d\n",
			dep.Size(), dep.AverageDegree(), dep.Connected(), dep.TrueSum())

		copts := repro.ClusterOptions{
			Pc: *pc, Polluter: attacker, PollutionDelta: *delta,
			NoDegrade: *nodeg, CrashRate: *crash, HeadCrashRate: *hcrash,
			CrashRecover: *recov, NoFailover: *nofail,
		}
		if *attackS != "" {
			pols, err := attack.ParseSpec(*attackS)
			if err != nil {
				return err
			}
			camp, err := attack.NewCampaign(*seed, *rounds, pols...)
			if err != nil {
				return err
			}
			if reg != nil {
				camp.Instrument(reg)
			}
			results, rep, err := dep.RunClusterCampaign(copts, camp)
			if err != nil {
				return err
			}
			for i, r := range results {
				fmt.Printf("--- round %d ---\n", i+1)
				printResult(r)
			}
			printCampaign(rep)
			printMetrics(reg)
			return dumpIfEnabled(dumpTrace)
		}
		if *localize && *protocol == "cluster" {
			loc, err := dep.LocalizePolluter(copts)
			if err != nil {
				return err
			}
			fmt.Printf("localization: suspect=%d rounds=%d\n", loc.Suspect, loc.Rounds)
			return nil
		}
		if *rounds != 1 {
			results, err := dep.RunClusterRounds(*rounds, copts)
			if err != nil {
				return err
			}
			for i, r := range results {
				fmt.Printf("--- round %d ---\n", i+1)
				printResult(r)
			}
			printMetrics(reg)
			return dumpIfEnabled(dumpTrace)
		}
		res, err := runnerFor(*protocol)(dep, runOpts{cluster: copts, slices: *slices})
		if err != nil {
			return err
		}
		printResult(res)
		printMetrics(reg)
		return dumpIfEnabled(dumpTrace)
	}
	return fs, simulate()
}

// validate is the upfront sanity sweep: nonsensical flag values are usage
// errors (exit 2) reported before any deployment is built, not panics or
// half-run simulations.
func validate(nodes int, field, radio, loss, crash, hcrash,
	pc float64, rounds, slices, traceCap int, observe, protocol string) error {
	err := errors.Join(
		cliutil.CheckMin("nodes", nodes, 2),
		cliutil.CheckPositive("field", field),
		cliutil.CheckPositive("range", radio),
		cliutil.CheckRange("crash", crash, 0, 1),
		cliutil.CheckRange("headcrash", hcrash, 0, 1),
		cliutil.CheckMin("slices", slices, 0),
		cliutil.CheckMin("trace", traceCap, 0),
	)
	if loss < 0 || loss >= 1 {
		err = errors.Join(err, cliutil.Usagef("-loss must be in [0, 1), got %g", loss))
	}
	if pc < 0 || pc >= 1 {
		err = errors.Join(err, cliutil.Usagef("-pc must be in [0, 1), got %g", pc))
	}
	if rounds < 1 || rounds > 65535 {
		err = errors.Join(err, cliutil.Usagef("-rounds must be in [1, 65535], got %d", rounds))
	}
	if rounds != 1 && protocol != "cluster" {
		err = errors.Join(err, cliutil.Usagef("-rounds applies to the cluster protocol only"))
	}
	if runnerFor(protocol) == nil {
		err = errors.Join(err, cliutil.Usagef("unknown protocol %q (want %s)", protocol, protocolNames()))
	}
	if observe != "" {
		err = errors.Join(err, cliutil.CheckAddr("observe", observe))
	}
	return err
}

// serveObserve serves the registry on /metricsz next to the stock pprof
// handlers, on a background listener that lives for the rest of the run.
func serveObserve(addr string, reg *telemetry.Registry) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-observe %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	mux.HandleFunc("GET /metricsz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", telemetry.ContentType)
		_ = reg.WritePrometheus(w) // client gone; nothing useful to do
	})
	fmt.Printf("observe: metrics on http://%s/metricsz, pprof on /debug/pprof\n", ln.Addr())
	go func() {
		if err := station.NewServer(mux).Serve(ln); err != nil {
			fmt.Fprintln(os.Stderr, "aggsim: observe:", err)
		}
	}()
	return nil
}

// printMetrics prints the final /metricsz exposition of an observed run.
func printMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	fmt.Println("\n--- metrics ---")
	_ = reg.WritePrometheus(os.Stdout)
}

func dumpIfEnabled(dumpTrace func(io.Writer) error) error {
	if dumpTrace == nil {
		return nil
	}
	fmt.Println("\n--- protocol trace ---")
	return dumpTrace(os.Stdout)
}

// printCampaign renders the adversary campaign's typed report: one line per
// attacker action with its witness verdict, then the aggregate counters.
func printCampaign(rep attack.Report) {
	fmt.Println("\n--- campaign report ---")
	for _, a := range rep.Actions {
		verdict := "SILENT BREACH"
		switch {
		case a.Detected:
			verdict = "detected (" + a.Cause + ")"
		case a.Moot:
			verdict = "no effect"
		}
		fmt.Printf("action %d  round %d  %-8s node %-4d %s — %s\n",
			a.ID, a.Round, a.Policy, a.Node, a.Detail, verdict)
		if a.Breach && a.Victim > 0 {
			fmt.Printf("          reconstructed reading of node %d: %d (truth %d)\n",
				a.Victim, a.Value, a.Truth)
		}
	}
	fmt.Printf("rounds %d (%d clean)  actions %d  detected %d  breaches %d  false alarms %d  detection rate %.3f\n",
		rep.Rounds, rep.CleanRounds, len(rep.Actions), rep.Detections(),
		rep.Breaches(), rep.FalseAlarms, rep.DetectionRate())
}

func printResult(r repro.Result) {
	fmt.Printf("protocol:      %s\n", r.Protocol)
	fmt.Printf("reported sum:  %d (true %d, accuracy %.3f)\n", r.ReportedSum, r.TrueSum, r.Accuracy())
	fmt.Printf("reported cnt:  %d of %d (participation %.3f)\n", r.ReportedCnt, r.TrueCount, r.ParticipationRate())
	fmt.Printf("covered:       %d\n", r.Covered)
	fmt.Printf("accepted:      %v (alarms %d)\n", r.Accepted, r.Alarms)
	if r.DegradedClusters > 0 || r.FailedClusters > 0 {
		fmt.Printf("clusters:      %d degraded, %d failed\n", r.DegradedClusters, r.FailedClusters)
	}
	if r.Takeovers > 0 || r.Promotions > 0 || r.OrphansRejoined > 0 {
		fmt.Printf("failover:      %d takeovers, %d promotions, %d orphans rejoined\n",
			r.Takeovers, r.Promotions, r.OrphansRejoined)
	}
	fmt.Printf("traffic:       %d bytes, %d frames (%d app frames)\n", r.TxBytes, r.TxMessages, r.AppMessages)
}
