package benchio

import (
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Some CPU @ 2.40GHz
BenchmarkRoundCluster-8   	      28	  41400000 ns/op	13200000 B/op	  211924 allocs/op
BenchmarkClusterAlgebra/m=16-8  	  35000	     33997 ns/op	    7912 B/op	      39 allocs/op
BenchmarkFieldInv-8       	 6100000	       196.4 ns/op	       0 B/op	       0 allocs/op
BenchmarkNoMem-8          	 1000000	      1234 ns/op
BenchmarkRound/n=10k-8    	       5	 245000000 ns/op	       212.4 allocs/node	52000000 B/op	  820000 allocs/op
PASS
ok  	repro	12.3s
`

func TestParse(t *testing.T) {
	m, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5: %v", len(m), m)
	}
	rc, ok := m["BenchmarkRoundCluster"]
	if !ok {
		t.Fatal("proc suffix not stripped")
	}
	if rc.NsPerOp != 41400000 || rc.BytesPerOp != 13200000 || rc.AllocsPerOp != 211924 {
		t.Errorf("RoundCluster = %+v", rc)
	}
	sub, ok := m["BenchmarkClusterAlgebra/m=16"]
	if !ok || sub.NsPerOp != 33997 {
		t.Errorf("sub-bench = %+v ok=%v (the /m=16 path must survive)", sub, ok)
	}
	if inv := m["BenchmarkFieldInv"]; inv.NsPerOp != 196.4 {
		t.Errorf("fractional ns/op = %+v", inv)
	}
	if nm := m["BenchmarkNoMem"]; nm.NsPerOp != 1234 || nm.AllocsPerOp != 0 {
		t.Errorf("benchmem-less line = %+v", nm)
	}
	// The round benches' custom per-node metric rides along in the same line.
	if rd := m["BenchmarkRound/n=10k"]; rd.AllocsPerNode != 212.4 || rd.AllocsPerOp != 820000 {
		t.Errorf("allocs/node line = %+v", rd)
	}
	if rc.AllocsPerNode != 0 {
		t.Errorf("allocs/node should stay zero when unreported, got %+v", rc)
	}
}

// TestParseRepeatedLinesKeepMedian: go test -count N prints a benchmark N
// times; Parse keeps the median of each metric, so one slow sample on a
// shared machine does not move the snapshot.
func TestParseRepeatedLinesKeepMedian(t *testing.T) {
	const out = `BenchmarkA-2   10  300 ns/op  64 B/op  3 allocs/op
BenchmarkB-2   10  900 ns/op
BenchmarkA-2   10  100 ns/op  32 B/op  1 allocs/op
BenchmarkB-2   10  100 ns/op
BenchmarkA-2   10 5000 ns/op  16 B/op  2 allocs/op
BenchmarkR-2  1  4.2e8 ns/op  0.5 allocs/node  9e6 B/op  90000 allocs/op
BenchmarkR-2  1  3.9e8 ns/op  0.3 allocs/node  8e6 B/op  80000 allocs/op
`
	m, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if a := m["BenchmarkA"]; a != (Metrics{NsPerOp: 300, BytesPerOp: 32, AllocsPerOp: 2}) {
		t.Errorf("odd count: A = %+v, want the per-metric middle values", a)
	}
	if b := m["BenchmarkB"]; b.NsPerOp != 500 {
		t.Errorf("even count: B = %+v, want the mean of the two middle values", b)
	}
	if r := m["BenchmarkR"]; r.AllocsPerNode != 0.4 || r.AllocsPerOp != 85000 || r.NsPerOp != 4.05e8 {
		t.Errorf("allocs/node line = %+v", r)
	}
}

// TestCompareZeroBaselineAllowance: over a zero allocs/op baseline no ratio
// can grow, so an absolute allowance judges instead — allocs/node where the
// benchmark reports it, allocs/op otherwise. An occasional first-growth
// allocation passes; one allocation per node does not.
func TestCompareZeroBaselineAllowance(t *testing.T) {
	prev := Snapshot{Benchmarks: map[string]Metrics{
		"BenchmarkRound":     {NsPerOp: 100, AllocsPerNode: 0.0005},
		"BenchmarkRetained":  {NsPerOp: 100, AllocsPerNode: 0.0005},
		"BenchmarkPerMember": {NsPerOp: 100, AllocsPerNode: 0.0005},
		"BenchmarkMul":       {NsPerOp: 1},
		"BenchmarkInv":       {NsPerOp: 1},
	}}
	cur := Snapshot{Benchmarks: map[string]Metrics{
		"BenchmarkRound":     {NsPerOp: 100, AllocsPerOp: 1, AllocsPerNode: 0.0025}, // first growth
		"BenchmarkRetained":  {NsPerOp: 100, AllocsPerOp: 4, AllocsPerNode: 0.01},   // at the bound
		"BenchmarkPerMember": {NsPerOp: 100, AllocsPerOp: 420, AllocsPerNode: 1.05},
		"BenchmarkMul":       {NsPerOp: 1, AllocsPerOp: 1},
		"BenchmarkInv":       {NsPerOp: 1, AllocsPerOp: 2},
	}}
	regs := CompareBy(prev, cur, 0.02, false, true)
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v, want BenchmarkInv and BenchmarkPerMember", regs)
	}
	if r := regs[0]; r.Name != "BenchmarkInv" || r.Metric != "allocs/op" || r.Prev != 0 || r.Cur != 2 || !math.IsInf(r.Ratio, 1) {
		t.Errorf("regs[0] = %+v, want BenchmarkInv allocs/op 0 -> 2", r)
	}
	if r := regs[1]; r.Name != "BenchmarkPerMember" || r.Metric != "allocs/node" || r.Cur != 1.05 {
		t.Errorf("regs[1] = %+v, want BenchmarkPerMember allocs/node 1.05", r)
	}
	if regs := CompareBy(prev, cur, 0.02, true, false); len(regs) != 0 {
		t.Errorf("allocs exempted, yet regressions = %+v", regs)
	}
}

func TestCompareABPairsRuns(t *testing.T) {
	run := func(loop, round float64) map[string]Metrics {
		m := map[string]Metrics{"BenchmarkLoop": {NsPerOp: loop, BytesPerOp: 8}}
		if round > 0 {
			m["BenchmarkRound"] = Metrics{NsPerOp: round}
		}
		return m
	}
	base := []map[string]Metrics{run(100, 10), run(120, 0), run(90, 12), run(110, 11)}
	head := []map[string]Metrics{run(80, 9), run(125, 13), run(85, 0), run(70, 10), run(1, 1)}
	got := CompareAB(base, head)
	if len(got) != 2 {
		t.Fatalf("results = %+v, want Loop and Round", got)
	}
	loop, round := got[0], got[1]
	// The fifth head run has no base partner; Round is missing from one
	// side of pairs 2 and 3.
	if loop.Name != "BenchmarkLoop" || loop.Pairs != 4 || loop.HeadWins != 3 ||
		loop.Base.NsPerOp != 105 || loop.Head.NsPerOp != 82.5 || loop.Head.BytesPerOp != 8 {
		t.Errorf("Loop = %+v", loop)
	}
	if round.Name != "BenchmarkRound" || round.Pairs != 2 || round.HeadWins != 2 ||
		round.Base.NsPerOp != 10.5 || round.Head.NsPerOp != 9.5 {
		t.Errorf("Round = %+v", round)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap := Snapshot{
		Date:      "2026-08-05",
		GoVersion: "go1.24.0",
		Host:      "ci",
		Benchmarks: map[string]Metrics{
			"BenchmarkX": {NsPerOp: 12.5, BytesPerOp: 64, AllocsPerOp: 2},
		},
	}
	path := NextPath(dir, snap.Date)
	if filepath.Base(path) != "BENCH_2026-08-05.json" {
		t.Errorf("first path = %s", path)
	}
	if err := WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != snap.Date || got.Benchmarks["BenchmarkX"] != snap.Benchmarks["BenchmarkX"] {
		t.Errorf("round trip = %+v", got)
	}
	// Same-day snapshots suffix _2, _3, … and list oldest-first.
	p2 := NextPath(dir, snap.Date)
	if filepath.Base(p2) != "BENCH_2026-08-05_2.json" {
		t.Errorf("second path = %s", p2)
	}
	if err := WriteFile(p2, snap); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(filepath.Join(dir, "BENCH_2026-08-04.json"), snap); err != nil {
		t.Fatal(err)
	}
	list, err := ListSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BENCH_2026-08-04.json", "BENCH_2026-08-05.json", "BENCH_2026-08-05_2.json"}
	if len(list) != len(want) {
		t.Fatalf("list = %v", list)
	}
	for i := range want {
		if filepath.Base(list[i]) != want[i] {
			t.Errorf("list[%d] = %s, want %s", i, filepath.Base(list[i]), want[i])
		}
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	prev := Snapshot{Benchmarks: map[string]Metrics{
		"BenchmarkA":    {NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkB":    {NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkC":    {NsPerOp: 100, AllocsPerOp: 0},
		"BenchmarkGone": {NsPerOp: 100},
	}}
	cur := Snapshot{Benchmarks: map[string]Metrics{
		"BenchmarkA":   {NsPerOp: 150, AllocsPerOp: 10}, // time regression
		"BenchmarkB":   {NsPerOp: 90, AllocsPerOp: 13},  // alloc regression
		"BenchmarkC":   {NsPerOp: 110, AllocsPerOp: 1},  // within threshold and the zero-base allowance
		"BenchmarkNew": {NsPerOp: 999},                  // no baseline: skipped
	}}
	regs := CompareBy(prev, cur, 0.2, true, true)
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v, want 2", regs)
	}
	if regs[0].Name != "BenchmarkA" || regs[0].Metric != "ns/op" || regs[0].Ratio != 1.5 {
		t.Errorf("regs[0] = %+v", regs[0])
	}
	if regs[1].Name != "BenchmarkB" || regs[1].Metric != "allocs/op" {
		t.Errorf("regs[1] = %+v", regs[1])
	}
	if len(CompareBy(prev, cur, 0.6, true, true)) != 0 {
		t.Error("loose threshold should pass everything")
	}
}

// procSuffix matches a trailing GOMAXPROCS-style "-N" marker.
var procSuffix = regexp.MustCompile(`-[0-9]+$`)

// FuzzParse: Parse never panics on arbitrary text, and every name it
// returns is a benchmark name with no -N suffix left, whatever GOMAXPROCS
// (or the sub-benchmark's own name) put there.
func FuzzParse(f *testing.F) {
	f.Add(sampleOutput)
	f.Add("BenchmarkX/n-4-8 \t 10\t 5 ns/op\n")
	f.Add("BenchmarkY-99999999999999999999 1 2 ns/op 3 B/op 4 allocs/op\n")
	f.Add("Benchmark 1 ns/op\nBenchmarkZ- 1 1 ns/op\n")
	f.Add("BenchmarkR-2 1 3 ns/op 2 allocs/node\nBenchmarkR-2 1 NaN ns/op -1 allocs/node\n")
	f.Fuzz(func(t *testing.T, text string) {
		m, err := Parse(strings.NewReader(text))
		if err != nil {
			return // a line past the scanner's buffer is an error, not a panic
		}
		for name := range m {
			if !strings.HasPrefix(name, "Benchmark") {
				t.Errorf("name %q does not start with Benchmark", name)
			}
			if procSuffix.MatchString(name) {
				t.Errorf("name %q keeps a -N suffix", name)
			}
		}
	})
}
