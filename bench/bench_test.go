package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// toy shrinks a workload to smoke-test size: at most 200 nodes and 8
// warm-up requests. With 0.8 s windows the whole smoke stays under ten
// seconds.
func toy(w workload) workload {
	if w.sim != nil {
		s := *w.sim
		s.nodes = 200
		w.sim = &s
	}
	if w.serve != nil {
		s := *w.serve
		s.deploy.Nodes = min(s.deploy.Nodes, 200)
		s.warm = min(s.warm, 8)
		w.serve = &s
	}
	return w
}

func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := toy(w)
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				smoke(t, w, traced)
			})
		}
	}
}

func smoke(t *testing.T, w workload, traced bool) {
	o := options{seed: 3, window: 800 * time.Millisecond}
	defs := endToEnd
	var rec *spanRec
	if traced {
		defs, rec = perLayer, newSpanRec(w.name)
	}
	rep, err := runWorkload(w, o, rec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rep.result(defs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d wrong=%v", res.Correct, res.Failed, rep.wrong)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
		if !traced && m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m.Value)
		}
	}
	if !traced {
		return
	}
	var buf bytes.Buffer
	if err := rec.writeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"core.exchange", "station.run"} {
		if !strings.Contains(buf.String(), `"name":"`+name+`"`) {
			t.Errorf("no %s span", name)
		}
	}
}

func TestUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	if code := run([]string{"-trace", "2"}, &out, &errOut); code != 2 {
		t.Errorf("bad -trace: exit %d, want 2", code)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	s := *workloads[3].serve
	a, b := s.schedule(7, 30*time.Second), s.schedule(7, 30*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := s.schedule(8, 30*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave one schedule")
	}
	if a[0].Due != 0 {
		t.Errorf("first arrival due at %v, want 0", a[0].Due)
	}
	for i, x := range a {
		if x.Kind != s.kinds[i%len(s.kinds)] || x.Seed != s.seeds[i%len(s.seeds)] {
			t.Fatalf("arrival %d asks %v seed %d", i, x.Kind, x.Seed)
		}
		if i > 0 && x.Due < a[i-1].Due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
		if x.Due >= 30*time.Second {
			t.Fatalf("arrival %d due at %v, past the window", i, x.Due)
		}
	}
	// Poisson arrivals: within four standard deviations of rate × window.
	want := s.rate * 30
	if n := float64(len(a)); math.Abs(n-want) > 4*math.Sqrt(want) {
		t.Errorf("%v arrivals in 30 s at %v/s", n, s.rate)
	}
	if got := len(s.pairs()); got != 56 {
		t.Errorf("%d (kind, seed) pairs, want 56", got)
	}
}

func TestPercentiles(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(101-i))
	}
	d := newDist(xs)
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := d.quantile(c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !d.supports(0.9) || d.supports(0.99) {
		t.Errorf("100 samples: supports(0.9)=%v supports(0.99)=%v, want true false", d.supports(0.9), d.supports(0.99))
	}
	if !math.IsNaN(dist(nil).quantile(0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100, 102, 98}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, "lower", verdictPass},
		{"slower past the bound", []float64{115, 116, 114, 115, 115}, "lower", verdictRegression},
		{"slower within the bound", []float64{105, 106, 104, 105, 105}, "lower", verdictPass},
		{"lower throughput", []float64{85, 86, 84, 85, 85}, "higher", verdictRegression},
		{"noisy", []float64{60, 100, 140, 100, 180}, "lower", verdictUnresolved},
		{"noisy but always faster", []float64{10, 50, 90, 20, 60}, "lower", verdictPass},
	} {
		if got := judge(steady, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	rec := newSpanRec("test")
	t0 := rec.epoch
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := rec.add(0, "root", "r", at(0), at(100))
	rec.add(root, "a", "r", at(10), at(40))
	rec.add(root, "b", "r", at(30), at(60))  // overlaps a by 10
	rec.add(root, "c", "r", at(90), at(120)) // sticks out past the root
	self := rec.selfMs()
	if got := self["root"][0]; got != 40 {
		t.Errorf("root self time %v ms, want 40", got)
	}
	if got := self["c"][0]; got != 30 {
		t.Errorf("leaf self time %v ms, want 30", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with what runs print.
func TestBenchmarkJSON(t *testing.T) {
	b, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, %d+%d here",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		m := b.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v in BENCHMARK.json, %+v here", i, m, d)
		}
	}
	for i, d := range perLayer {
		m := b.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v in BENCHMARK.json, %+v here", i, m, d)
		}
	}
}
