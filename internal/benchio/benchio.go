// Package benchio persists and compares `go test -bench` results so the
// repository keeps a benchmark trend alongside the code: cmd/benchtrend runs
// the suite, stores one BENCH_<date>.json snapshot per invocation, and gates
// on regressions against the previous snapshot.
package benchio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's measured cost per operation. AllocsPerNode is
// the round benches' custom "allocs/node" metric — allocations normalised by
// deployment size, the number that stays comparable when a bench's node
// count changes; zero when the benchmark does not report it.
type Metrics struct {
	NsPerOp       float64 `json:"ns_op"`
	BytesPerOp    float64 `json:"b_op"`
	AllocsPerOp   float64 `json:"allocs_op"`
	AllocsPerNode float64 `json:"allocs_node,omitempty"`
}

// Snapshot is one recorded benchmark run.
type Snapshot struct {
	Date       string             `json:"date"`
	GoVersion  string             `json:"go_version"`
	Host       string             `json:"host"`
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

// Parse extracts per-benchmark metrics from `go test -bench` output. The
// trailing -N GOMAXPROCS suffix is stripped from names so snapshots from
// machines with different core counts stay comparable. Lines without
// -benchmem columns parse with zero B/op and allocs/op. A benchmark that
// appears on several lines (go test -count) keeps the median of each
// metric over its lines.
func Parse(r io.Reader) (map[string]Metrics, error) {
	samples := make(map[string][]Metrics)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := trimProcSuffix(fields[0])
		var m Metrics
		ok := false
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = v
				ok = true
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			case "allocs/node":
				m.AllocsPerNode = v
			}
		}
		if ok {
			samples[name] = append(samples[name], m)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchio: %w", err)
	}
	out := make(map[string]Metrics, len(samples))
	for name, ms := range samples {
		out[name] = medians(ms)
	}
	return out, nil
}

// medians returns the median of each metric over samples.
func medians(ms []Metrics) Metrics {
	return Metrics{
		NsPerOp:       median(ms, func(m Metrics) float64 { return m.NsPerOp }),
		BytesPerOp:    median(ms, func(m Metrics) float64 { return m.BytesPerOp }),
		AllocsPerOp:   median(ms, func(m Metrics) float64 { return m.AllocsPerOp }),
		AllocsPerNode: median(ms, func(m Metrics) float64 { return m.AllocsPerNode }),
	}
}

// median returns the median of one metric over samples: the middle value,
// or the mean of the two middle values for an even count.
func median(samples []Metrics, metric func(Metrics) float64) float64 {
	vs := make([]float64, len(samples))
	for i, m := range samples {
		vs[i] = metric(m)
	}
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}

// trimProcSuffix drops every trailing "-<digits>" from a benchmark name,
// leaving sub-benchmark paths like "Benchmark/m=16" intact. go test appends
// the GOMAXPROCS marker only when it is not 1, so a sub-benchmark whose own
// name ends in -<digits> keys the same on every core count only when all
// such suffixes go.
func trimProcSuffix(name string) string {
	for {
		i := strings.LastIndexByte(name, '-')
		if i < 0 || !allDigits(name[i+1:]) {
			return name
		}
		name = name[:i]
	}
}

// allDigits reports whether s is a non-empty run of ASCII digits.
func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// WriteFile stores a snapshot as indented JSON.
func WriteFile(path string, s Snapshot) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("benchio: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a snapshot.
func ReadFile(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, fmt.Errorf("benchio: %w", err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("benchio: %s: %w", path, err)
	}
	return s, nil
}

// ListSnapshots returns the BENCH_*.json files in dir, oldest first: sorted
// by date, then by the numeric _k suffix that NextPath appends for multiple
// runs on one day.
func ListSnapshots(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, fmt.Errorf("benchio: %w", err)
	}
	sort.Slice(matches, func(i, j int) bool {
		di, ki := splitSnapshotName(matches[i])
		dj, kj := splitSnapshotName(matches[j])
		if di != dj {
			return di < dj
		}
		return ki < kj
	})
	return matches, nil
}

// splitSnapshotName decomposes BENCH_<date>[_k].json into (date, k).
func splitSnapshotName(path string) (string, int) {
	base := strings.TrimSuffix(filepath.Base(path), ".json")
	base = strings.TrimPrefix(base, "BENCH_")
	if i := strings.LastIndexByte(base, '_'); i >= 0 {
		if k, err := strconv.Atoi(base[i+1:]); err == nil {
			return base[:i], k
		}
	}
	return base, 1
}

// NextPath returns the snapshot path for the given date that does not yet
// exist: BENCH_<date>.json, then BENCH_<date>_2.json, _3, …
func NextPath(dir, date string) string {
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", date))
	for k := 2; ; k++ {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
		path = filepath.Join(dir, fmt.Sprintf("BENCH_%s_%d.json", date, k))
	}
}

// Delta is one benchmark's change between two snapshots. Ratio is
// current/previous for the metric (+Inf over a zero baseline).
type Delta struct {
	Name   string
	Metric string // "ns/op", "allocs/op" or "allocs/node"
	Prev   float64
	Cur    float64
	Ratio  float64
}

// Absolute allowances for a benchmark whose previous allocs/op was 0,
// where no ratio can grow. A buffer's first growth still shows up now and
// then as about one allocation per op; one allocation per node or per
// cluster member per round is a hundred times the per-node bound, and at
// least the node count per op.
const (
	zeroBaseAllocsPerNode = 0.01
	zeroBaseAllocsPerOp   = 1
)

// CompareBy reports every benchmark present in both snapshots whose ns/op
// or allocs/op grew by more than threshold (e.g. 0.2 = 20%). Setting time
// or allocs false exempts that metric. Over a zero allocs/op baseline a
// benchmark regresses when its allocs/node exceeds zeroBaseAllocsPerNode,
// or, if it does not report allocs/node, when its allocs/op exceeds
// zeroBaseAllocsPerOp. Gating on allocs alone gives a deterministic
// regression check usable on noisy shared machines, where wall-clock
// thresholds tight enough to be useful would flake.
func CompareBy(prev, cur Snapshot, threshold float64, time, allocs bool) []Delta {
	var regressions []Delta
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p, ok := prev.Benchmarks[name]
		if !ok {
			continue
		}
		c := cur.Benchmarks[name]
		if time && p.NsPerOp > 0 && c.NsPerOp > p.NsPerOp*(1+threshold) {
			regressions = append(regressions, Delta{
				Name: name, Metric: "ns/op",
				Prev: p.NsPerOp, Cur: c.NsPerOp, Ratio: c.NsPerOp / p.NsPerOp,
			})
		}
		if !allocs {
			continue
		}
		pa, ca := p.AllocsPerOp, c.AllocsPerOp
		switch {
		case pa > 0:
			if ca > pa*(1+threshold) {
				regressions = append(regressions, Delta{
					Name: name, Metric: "allocs/op", Prev: pa, Cur: ca, Ratio: ca / pa,
				})
			}
		case c.AllocsPerNode > 0:
			if c.AllocsPerNode > zeroBaseAllocsPerNode {
				regressions = append(regressions, Delta{
					Name: name, Metric: "allocs/node", Prev: p.AllocsPerNode,
					Cur: c.AllocsPerNode, Ratio: c.AllocsPerNode / p.AllocsPerNode,
				})
			}
		case ca > zeroBaseAllocsPerOp:
			regressions = append(regressions, Delta{
				Name: name, Metric: "allocs/op", Cur: ca, Ratio: math.Inf(1),
			})
		}
	}
	return regressions
}

// ABResult is one benchmark's interleaved comparison of a base and a head
// build: the median of each metric over each side's runs, and in how many
// of the pairs (runs of the two sides taken back to back) head was faster.
type ABResult struct {
	Name       string
	Pairs      int // pairs in which both sides ran the benchmark
	HeadWins   int // pairs whose head ns/op was below the base ns/op
	Base, Head Metrics
}

// CompareAB pairs base[i] with head[i], each the parsed output of one run,
// and summarises every benchmark that both runs of a pair hold, sorted by
// name.
func CompareAB(base, head []map[string]Metrics) []ABResult {
	type sides struct {
		base, head []Metrics
		wins       int
	}
	byName := make(map[string]*sides)
	for i := range min(len(base), len(head)) {
		for name, b := range base[i] {
			h, ok := head[i][name]
			if !ok {
				continue
			}
			r := byName[name]
			if r == nil {
				r = &sides{}
				byName[name] = r
			}
			r.base = append(r.base, b)
			r.head = append(r.head, h)
			if h.NsPerOp < b.NsPerOp {
				r.wins++
			}
		}
	}
	out := make([]ABResult, 0, len(byName))
	for name, r := range byName {
		out = append(out, ABResult{Name: name, Pairs: len(r.base), HeadWins: r.wins,
			Base: medians(r.base), Head: medians(r.head)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
