package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is BENCHMARK.json's description of the workloads and metrics.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

// samples holds every value read per workload and metric.
type samples map[string]map[string][]float64

// runCompare implements -compare A B: A and B each name result files — a
// file, a directory of them, or a glob — holding the output of runs of the
// parent and of the change. For every workload and metric it prints both
// sides' median and quartiles and judges the change against the bound in
// BENCHMARK.json. It exits 1 if any metric regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: usage: -compare A B (each a result file, a directory or a glob)")
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	a, err := readSide(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readSide(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	bounds := make(map[string]float64)
	better := make(map[string]string)
	for _, m := range sp.EndToEnd {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
	}
	for _, m := range sp.PerLayer {
		better[m.Name] = m.Better
	}
	names := make([]string, 0, len(a))
	for w := range a {
		if _, ok := b[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "bench: no workload has results on both sides")
		return 2
	}
	counts := make(map[string]int)
	fmt.Fprintf(stdout, "%-14s %-34s %28s %28s %8s %6s  %s\n", "workload", "metric",
		"A median [q1, q3] n", "B median [q1, q3] n", "change", "bound", "verdict")
	for _, w := range names {
		metrics := make([]string, 0, len(a[w]))
		for m := range a[w] {
			if _, ok := b[w][m]; ok {
				metrics = append(metrics, m)
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			va, vb := a[w][m], b[w][m]
			verdict, bound := "-", "-"
			if bd, ok := bounds[m]; ok {
				verdict = judge(va, vb, better[m], bd)
				bound = fmt.Sprintf("%.0f%%", 100*bd)
				counts[verdict]++
			}
			change := "-"
			if dir, ok := better[m]; ok && median(va) != 0 {
				change = fmt.Sprintf("%+.1f%%", -100*worse(median(va), median(vb), dir))
			}
			fmt.Fprintf(stdout, "%-14s %-34s %28s %28s %8s %6s  %s\n", w, m, describe(va), describe(vb),
				change, bound, verdict)
		}
	}
	fmt.Fprintf(stdout, "%d PASS, %d REGRESSION, %d UNRESOLVED (change is positive when B is better)\n",
		counts[verdictPass], counts[verdictRegression], counts[verdictUnresolved])
	if counts[verdictRegression] > 0 {
		return 1
	}
	return 0
}

func describe(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", q2, q1, q3, len(xs))
}

// loadSpec reads BENCHMARK.json from the working directory or its parent,
// so the comparison runs from the repository root or from bench/.
func loadSpec() (spec, error) {
	var sp spec
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		if err := json.Unmarshal(data, &sp); err != nil {
			return sp, fmt.Errorf("%s: %w", p, err)
		}
		return sp, nil
	}
	return sp, fmt.Errorf("BENCHMARK.json not found here or in the parent directory")
}

// readSide collects every result line from the files arg names.
func readSide(arg string) (samples, error) {
	files, err := filepath.Glob(arg)
	if err != nil {
		return nil, err
	}
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		files, err = filepath.Glob(filepath.Join(arg, "*"))
		if err != nil {
			return nil, err
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files match %s", arg)
	}
	out := make(samples)
	for _, f := range files {
		if st, err := os.Stat(f); err != nil || !st.Mode().IsRegular() {
			continue
		}
		if err := readResults(f, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readResults parses one run's output: a "workload NAME ..." line names
// the workload of the result lines after it.
func readResults(path string, out samples) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	workload := ""
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "workload "); ok {
			workload, _, _ = strings.Cut(rest, " ")
			continue
		}
		if !strings.HasPrefix(line, "{") || workload == "" {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if out[workload] == nil {
			out[workload] = make(map[string][]float64)
		}
		for name, m := range res.Metrics {
			out[workload][name] = append(out[workload][name], m.Value)
		}
	}
	return sc.Err()
}
