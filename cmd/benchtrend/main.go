// Command benchtrend runs the repository's benchmark suite, records one
// BENCH_<date>.json snapshot (ns/op, B/op, allocs/op per benchmark), and
// compares it against the previous snapshot, failing on regressions beyond
// the threshold. It is the repository's benchmark-trend harness:
//
//	go run ./cmd/benchtrend                 # run, snapshot, compare
//	go run ./cmd/benchtrend -quick          # 1-iteration smoke, nothing written
//	go run ./cmd/benchtrend -input out.txt  # ingest saved `go test -bench` output
//	go run ./cmd/benchtrend -ab HEAD~1 -bench X  # interleave HEAD~1 and the working tree
//
// Each benchmark runs three times (go test -count 3) and the snapshot keeps
// the median of each metric; an allocs-only gate (-metric allocs) and -quick
// run once. Snapshots accumulate in -dir (the repo root by default); the
// newest pre-existing one is the comparison baseline.
//
// -ab <rev> compares instead of snapshotting: it checks <rev> out with git
// worktree into a temporary directory, builds the package's test binary
// there and in the working tree, and runs the two binaries -pairs times
// each, back to back, alternating which side goes first. It prints each
// side's median per benchmark and how many pairs the working tree won, and
// writes no snapshot and gates nothing.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchio"
)

func main() {
	var (
		bench     = flag.String("bench", "^(BenchmarkRound|BenchmarkRoundRetained|BenchmarkRoundCluster|BenchmarkRoundTAG|BenchmarkRoundIPDA|BenchmarkQueryMix|BenchmarkClusterAlgebra|BenchmarkFieldMul|BenchmarkFieldInv|BenchmarkServeThroughput)$", "benchmark regexp passed to go test (the suite runs -short, which skips the n=100k scale point; run it explicitly with go test)")
		benchtime = flag.String("benchtime", "1s", "per-benchmark time passed to go test")
		dir       = flag.String("dir", ".", "directory holding the package to bench and the BENCH_*.json snapshots")
		input     = flag.String("input", "", "parse this saved `go test -bench` output instead of running the suite")
		threshold = flag.Float64("threshold", 0.2, "regression gate: fail when ns/op or allocs/op grow by more than this fraction")
		date      = flag.String("date", time.Now().Format("2006-01-02"), "snapshot date label")
		quick     = flag.Bool("quick", false, "smoke mode: one iteration per benchmark, no snapshot written, no gate")
		dry       = flag.Bool("dry", false, "run and compare but do not write a snapshot")
		metric    = flag.String("metric", "both", "which metrics the gate judges: time | allocs | both (ns_op and allocs_op are accepted spellings; allocs is deterministic, time flakes on shared machines)")
		baseline  = flag.String("baseline", "", "compare against this snapshot file instead of the newest BENCH_*.json")
		filter    = flag.String("filter", "", "restrict the parsed results, snapshot, and gate to benchmarks whose name contains this substring (e.g. BenchmarkRound)")
		pkg       = flag.String("pkg", ".", "with -ab: package to bench, relative to -dir (e.g. ./internal/sim)")
		ab        = flag.String("ab", "", "interleave the working tree with this git revision instead of snapshotting (no snapshot, no gate)")
		pairs     = flag.Int("pairs", 5, "with -ab: runs of each side, taken in back-to-back pairs")
	)
	flag.Parse()
	if *ab != "" {
		if err := runAB(*dir, *pkg, *ab, *bench, *benchtime, *pairs); err != nil {
			fmt.Fprintln(os.Stderr, "benchtrend:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*bench, *benchtime, *dir, *input, *date, *metric, *baseline, *filter, *threshold, *quick, *dry); err != nil {
		fmt.Fprintln(os.Stderr, "benchtrend:", err)
		os.Exit(1)
	}
}

func run(bench, benchtime, dir, input, date, metric, baseline, filter string, threshold float64, quick, dry bool) error {
	gateTime, gateAllocs := true, true
	switch metric {
	case "both":
	case "time", "ns_op": // snapshot-field spelling accepted
		gateAllocs = false
	case "allocs", "allocs_op":
		gateTime = false
	default:
		return fmt.Errorf("-metric wants time (ns_op), allocs (allocs_op), or both (got %q)", metric)
	}
	var raw []byte
	var err error
	if input != "" {
		raw, err = os.ReadFile(input)
		if err != nil {
			return err
		}
	} else {
		// Three samples let the median ride out one slow run on a shared
		// machine. Allocation counts hardly vary between runs, so an allocs-only
		// gate takes one.
		count := 3
		if !gateTime {
			count = 1
		}
		if quick {
			benchtime, count = "1x", 1
		}
		raw, err = runSuite(dir, bench, benchtime, count)
		if err != nil {
			return err
		}
	}
	marks, err := benchio.Parse(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	if filter != "" {
		for name := range marks {
			if !strings.Contains(name, filter) {
				delete(marks, name)
			}
		}
		if len(marks) == 0 {
			return fmt.Errorf("no benchmark results contain -filter %q", filter)
		}
	}
	if len(marks) == 0 {
		return fmt.Errorf("no benchmark results matched %q", bench)
	}
	cur := benchio.Snapshot{
		Date:       date,
		GoVersion:  runtime.Version(),
		Benchmarks: marks,
	}
	if host, err := os.Hostname(); err == nil {
		cur.Host = host
	}
	printSnapshot(cur)
	if quick {
		fmt.Println("quick smoke OK (no snapshot written)")
		return nil
	}

	basePath := baseline
	if basePath == "" {
		prior, err := benchio.ListSnapshots(dir)
		if err != nil {
			return err
		}
		if len(prior) > 0 {
			basePath = prior[len(prior)-1]
		}
	}
	if !dry {
		path := benchio.NextPath(dir, date)
		if err := benchio.WriteFile(path, cur); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	if basePath == "" {
		fmt.Println("no previous snapshot: baseline recorded, nothing to compare")
		return nil
	}
	base, err := benchio.ReadFile(basePath)
	if err != nil {
		return err
	}
	fmt.Printf("comparing against %s (threshold %.0f%%, metric %s)\n", basePath, threshold*100, metric)
	printDeltas(base, cur)
	if regs := benchio.CompareBy(base, cur, threshold, gateTime, gateAllocs); len(regs) > 0 {
		for _, r := range regs {
			fmt.Printf("REGRESSION %-40s %-10s %.1f -> %.1f (%.2fx)\n",
				r.Name, r.Metric, r.Prev, r.Cur, r.Ratio)
		}
		return fmt.Errorf("%d benchmark regression(s) beyond %.0f%%", len(regs), threshold*100)
	}
	fmt.Println("no regressions")
	return nil
}

// runSuite executes the benchmark suite in dir and returns the raw output.
func runSuite(dir, bench, benchtime string, count int) ([]byte, error) {
	// -short keeps the trend set bounded: the round benches skip their
	// n=100k point under it (a two-level -bench pattern can't express that
	// without also dropping the leaf benchmarks).
	args := []string{"test", "-short", "-run", "^$", "-bench", bench, "-benchmem", "-benchtime", benchtime,
		"-count", strconv.Itoa(count), "."}
	fmt.Printf("running: go %v\n", args)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test: %w\n%s", err, out)
	}
	return out, nil
}

// runAB builds the test binary of pkg at rev and in the working tree dir,
// runs them alternately for pairs pairs, and prints the comparison.
func runAB(dir, pkg, rev, bench, benchtime string, pairs int) error {
	if pairs < 1 {
		return fmt.Errorf("-pairs must be at least 1 (got %d)", pairs)
	}
	prefix, err := gitOutput(dir, "rev-parse", "--show-prefix")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchtrend-ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tree := filepath.Join(tmp, "base")
	if _, err := gitOutput(dir, "worktree", "add", "--detach", tree, rev); err != nil {
		return err
	}
	defer gitOutput(dir, "worktree", "remove", "--force", tree)

	roots := [2]string{filepath.Join(tree, strings.TrimSpace(prefix)), dir}
	var bins [2]string
	for side, root := range roots {
		bins[side] = filepath.Join(tmp, fmt.Sprintf("side%d.test", side))
		build := exec.Command("go", "test", "-c", "-o", bins[side], pkg)
		build.Dir = root
		if out, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("go test -c in %s: %w\n%s", root, err, out)
		}
	}
	args := []string{"-test.short", "-test.run", "^$", "-test.bench", bench,
		"-test.benchmem", "-test.benchtime", benchtime}
	fmt.Printf("a/b: %d pairs of %s (base) and the working tree (head): %v\n", pairs, rev, args)
	var runs [2][]map[string]benchio.Metrics
	for p := range pairs {
		for k := range 2 {
			side := (p + k) % 2 // odd pairs run head first
			cmd := exec.Command(bins[side], args...)
			cmd.Dir = filepath.Join(roots[side], pkg)
			out, err := cmd.CombinedOutput()
			if err != nil {
				return fmt.Errorf("%s: %w\n%s", bins[side], err, out)
			}
			marks, err := benchio.Parse(bytes.NewReader(out))
			if err != nil {
				return err
			}
			runs[side] = append(runs[side], marks)
		}
	}
	results := benchio.CompareAB(runs[0], runs[1])
	if len(results) == 0 {
		return fmt.Errorf("no benchmark matched %q on both sides", bench)
	}
	for _, r := range results {
		fmt.Printf("  %-44s %14.1f -> %14.1f ns/op (%+6.1f%%)  head won %d/%d  %.0f -> %.0f B/op  %.0f -> %.0f allocs/op\n",
			r.Name, r.Base.NsPerOp, r.Head.NsPerOp, 100*(r.Head.NsPerOp/r.Base.NsPerOp-1),
			r.HeadWins, r.Pairs, r.Base.BytesPerOp, r.Head.BytesPerOp, r.Base.AllocsPerOp, r.Head.AllocsPerOp)
	}
	return nil
}

// gitOutput runs git in dir and returns its standard output.
func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return "", fmt.Errorf("git %s: %w\n%s", strings.Join(args, " "), err, ee.Stderr)
		}
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return string(out), nil
}

func printSnapshot(s benchio.Snapshot) {
	for _, name := range sortedNames(s.Benchmarks) {
		m := s.Benchmarks[name]
		fmt.Printf("  %-44s %14.1f ns/op %12.0f B/op %10.0f allocs/op",
			name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
		if m.AllocsPerNode > 0 {
			fmt.Printf(" %10.1f allocs/node", m.AllocsPerNode)
		}
		fmt.Println()
	}
}

func printDeltas(base, cur benchio.Snapshot) {
	for _, name := range sortedNames(cur.Benchmarks) {
		c := cur.Benchmarks[name]
		b, ok := base.Benchmarks[name]
		if !ok || b.NsPerOp == 0 {
			continue
		}
		fmt.Printf("  %-44s time %+6.1f%%", name, 100*(c.NsPerOp/b.NsPerOp-1))
		switch {
		case b.AllocsPerOp > 0:
			fmt.Printf("  allocs %+6.1f%%", 100*(c.AllocsPerOp/b.AllocsPerOp-1))
		case c.AllocsPerNode > 0:
			// A zero baseline is judged on an absolute allowance
			// (benchio.CompareBy): print the value it judged.
			fmt.Printf("  allocs/node %.4f", c.AllocsPerNode)
		default:
			fmt.Printf("  allocs/op %.0f", c.AllocsPerOp)
		}
		fmt.Println()
	}
}

func sortedNames(m map[string]benchio.Metrics) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
