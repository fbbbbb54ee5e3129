// Command bench times the aggregation round and the served query end to
// end, checks every answer, and — with -trace 1 — breaks the time down by
// layer from spans it records around its own calls into each layer.
//
//	bash bench/run.sh --workload round-10k --seed 1 --seconds 20 --trace 0
//	go -C bench run . -workload serve-mix-400 -trace 1 -spans spans.jsonl
//	go -C bench run . -compare 'parent/*.out' 'change/*.out'
//
// Each run prints a human-readable table and, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md for
// the workloads, the metric definitions and the measured spreads.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro"
)

// metricDef names one reported metric. The lists below are what a run
// prints in its JSON line, and must match BENCHMARK.json (a test checks).
type metricDef struct {
	name, unit, better string
}

// endToEnd are printed by every untraced run, on every workload. A sim
// workload's operation is one round; a serve workload's is one query.
// Tail latencies and goodput are printed too but not gated: on a shared
// 2-core host they spread across runs past any usable bound (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"accepted_ratio", "ratio", "higher"},
}

// perLayer are printed by every traced run, on every workload.
var perLayer = []metricDef{
	{"station.client_wait_ms", "ms", "lower"},
	{"station.http_ms", "ms", "lower"},
	{"station.queue_wait_ms", "ms", "lower"},
	{"station.queue_wait_p90_ms", "ms", "lower"},
	{"station.run_ms", "ms", "lower"},
	{"station.refused_ratio", "ratio", "lower"},
	{"station.generator_late_ms", "ms", "lower"},
	{"fleet.shard_max_share", "ratio", "lower"},
	{"wsn.reset_ms", "ms", "lower"},
	{"core.formation_ms", "ms", "lower"},
	{"core.roster_ms", "ms", "lower"},
	{"core.exchange_ms", "ms", "lower"},
	{"core.assembly_ms", "ms", "lower"},
	{"core.announce_ms", "ms", "lower"},
	{"core.trace_overhead_pct", "%", "lower"},
	{"core.serial_round_ms", "ms", "lower"},
	{"core.participation", "ratio", "higher"},
	{"core.alarms_per_round", "count", "lower"},
	{"core.takeovers_per_round", "count", "lower"},
	{"core.degraded_per_round", "count", "lower"},
	{"sim.events_per_round", "count", "lower"},
	{"sim.event_ns", "ns", "lower"},
	{"radio.frames_per_round", "count", "lower"},
	{"radio.kb_per_round", "KB", "lower"},
	{"radio.collisions_per_round", "count", "lower"},
	{"radio.drops_per_round", "count", "lower"},
	{"radio.transmit_ns_dense", "ns", "lower"},
	{"radio.transmit_ns_sparse", "ns", "lower"},
	{"mac.retx_per_round", "count", "lower"},
	{"mac.acks_per_round", "count", "lower"},
	{"mac.drops_per_round", "count", "lower"},
	{"mac.useful_ratio", "ratio", "higher"},
	{"mac.unicast_ns", "ns", "lower"},
	{"wsncrypto.sealed_frames_per_round", "count", "lower"},
	{"wsncrypto.seal_ns_w1", "ns", "lower"},
	{"wsncrypto.seal_ns_w16", "ns", "lower"},
	{"wsncrypto.open_ns_w1", "ns", "lower"},
	{"wsncrypto.open_ns_w16", "ns", "lower"},
	{"message.frame_rt_ns", "ns", "lower"},
	{"message.values_rt_ns_w16", "ns", "lower"},
	{"message.announce_rt_ns", "ns", "lower"},
	{"shares.generate_ns_m5", "ns", "lower"},
	{"field.batch_solve_ns_m5_w16", "ns", "lower"},
}

// workload is one set of inputs; exactly one of sim and serve is set.
type workload struct {
	name  string
	sim   *simSpec
	serve *serveSpec
}

// querySeeds are the explicit per-request seeds of the serve workloads.
// They are fixed, like the topology, because they decide which fleet shard
// a query lands on; -seed draws the arrival schedule.
var querySeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// workloads are the benchmark's inputs; BENCHMARK.json and README.md say
// why each was chosen. Each workload deploys one fixed topology, so every
// run measures the same network; -seed draws the rest.
var workloads = []workload{
	{name: "round-10k", sim: &simSpec{nodes: 10_000, topology: 1}},
	{name: "epoch-10k", sim: &simSpec{nodes: 10_000, topology: 1, retained: true}},
	{name: "serve-sum-80", serve: &serveSpec{
		deploy:  repro.Options{Nodes: 80, Ideal: true, Seed: 7},
		workers: 2,
		kinds:   []repro.QueryKind{repro.QuerySum},
		seeds:   querySeeds,
		rate:    150,
		limit:   25 * time.Millisecond,
		warm:    128,
	}},
	{name: "serve-mix-400", serve: &serveSpec{
		deploy:  repro.Options{Nodes: 400, Seed: 7},
		shards:  2,
		workers: 1,
		kinds: []repro.QueryKind{repro.QuerySum, repro.QueryCount, repro.QueryAverage,
			repro.QueryVariance, repro.QueryStdDev, repro.QueryMin, repro.QueryMax},
		seeds: querySeeds,
		rate:  9,
		limit: 250 * time.Millisecond,
		warm:  14,
	}},
}

// options are one run's settings.
type options struct {
	seed   int64
	window time.Duration // how long the run measures
}

// How many times a run sets its workload up; setup_s is the median, and
// the last instance is the one measured. A serve set-up is short and the
// first ones of a process also pay for its heap's page faults, so it takes
// more repetitions for a steady median.
const (
	simSetups   = 3
	serveSetups = 5
)

// report is one workload run's outcome.
type report struct {
	attempted, failed int
	wrong             []string // correctness violations; any fails the run
	rows              []row    // every measured value, in print order
	notes             []string
}

// row is one measured value with the number of samples behind it.
type row struct {
	name  string
	value float64
	unit  string
	n     int
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.rows = append(r.rows, row{name, v, unit, n})
}

func (r *report) wrongf(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// value returns the first row with the given name, NaN if none.
func (r *report) value(name string) float64 {
	for _, rw := range r.rows {
		if rw.name == name {
			return rw.value
		}
	}
	return math.NaN()
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object every run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result selects the defined metrics from the report's rows.
func (r *report) result(defs []metricDef) (result, error) {
	res := result{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(defs))}
	have := make(map[string]row, len(r.rows))
	for _, rw := range r.rows {
		have[rw.name] = rw
	}
	for _, d := range defs {
		rw, ok := have[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if rw.unit != d.unit {
			return res, fmt.Errorf("metric %s measured in %s, defined in %s", d.name, rw.unit, d.unit)
		}
		res.Metrics[d.name] = metric{Value: rw.value, Unit: rw.unit}
	}
	if res.Attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	return res, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every input of the run is generated from")
	seconds := fs.Float64("seconds", 20, "how long the run measures, in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	spansOut := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSONL file")
	compare := fs.Bool("compare", false, "compare two sets of result files: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "bench: usage: -workload NAME -seed N -seconds S -trace 0|1 [-spans FILE]")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	o := options{seed: *seed, window: time.Duration(*seconds * float64(time.Second))}
	var recs []*spanRec
	code := 0
	for _, w := range selected {
		fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d gomaxprocs %d\n",
			w.name, o.seed, *seconds, *traced, runtime.GOMAXPROCS(0))
		var rec *spanRec
		if *traced == 1 {
			rec = newSpanRec(w.name)
			recs = append(recs, rec)
		}
		rep, err := runWorkload(w, o, rec)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		defs := endToEnd
		if rec != nil {
			defs = perLayer
		}
		res, err := rep.result(defs)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printReport(stdout, rep)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	if *spansOut != "" {
		if err := writeSpans(recs, *spansOut); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// runWorkload runs one workload: the untraced measurement, or with a span
// recorder the traced pass.
func runWorkload(w workload, o options, rec *spanRec) (*report, error) {
	if w.sim != nil {
		return runSim(*w.sim, o, rec)
	}
	return runServe(*w.serve, o, rec)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func printReport(w io.Writer, rep *report) {
	for _, r := range rep.rows {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", r.name, r.value, r.unit, r.n)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  wrong %d\n", rep.attempted, rep.failed, len(rep.wrong))
	for i, msg := range rep.wrong {
		if i == 5 {
			fmt.Fprintf(w, "  WRONG ... %d more\n", len(rep.wrong)-i)
			break
		}
		fmt.Fprintf(w, "  WRONG %s\n", msg)
	}
}

func writeSpans(recs []*spanRec, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, rec := range recs {
		if err := rec.writeJSONL(w); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
