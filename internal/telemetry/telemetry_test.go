package telemetry

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("Value = %d, want 3", g.Value())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("agg_test_total", "help", "kind", "query")
	b := r.Counter("agg_test_total", "help", "kind", "query")
	if a != b {
		t.Fatal("same name+labels must return the same counter handle")
	}
	other := r.Counter("agg_test_total", "help", "kind", "epoch")
	if other == a {
		t.Fatal("distinct labels must return distinct handles")
	}
}

// TestRegistryConcurrentGetOrCreate resolves one series from many
// goroutines at once while a scrape runs: every caller must get the same
// handle, so no increment lands on an orphan the exposition never shows.
func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r.Counter("agg_race_total", "help", "round", strconv.Itoa(i)).Inc()
				r.Gauge("agg_race_gauge", "help", "round", strconv.Itoa(i)).SetMax(int64(i))
			}
		}()
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	b.Reset()
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		key := `agg_race_total{round="` + strconv.Itoa(i) + `"}`
		if got[key] != workers {
			t.Errorf("%s = %v, want %d", key, got[key], workers)
		}
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("agg_clash", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name under two kinds must panic")
		}
	}()
	r.Gauge("agg_clash", "")
}

func TestRegistryFuncClashPanics(t *testing.T) {
	// A series first registered via CounterFunc must not hand out a nil
	// counter handle later — the clash surfaces at construction time.
	r := NewRegistry()
	r.CounterFunc("agg_fn_total", "", func() float64 { return 1 })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Counter after CounterFunc on the same series must panic")
			}
		}()
		r.Counter("agg_fn_total", "")
	}()
	r.GaugeFunc("agg_fn_gauge", "", func() float64 { return 1 })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Gauge after GaugeFunc on the same series must panic")
			}
		}()
		r.Gauge("agg_fn_gauge", "")
	}()
	// And the reverse direction: fn over an existing handle.
	r.Counter("agg_handle_total", "")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("CounterFunc after Counter on the same series must panic")
			}
		}()
		r.CounterFunc("agg_handle_total", "", func() float64 { return 1 })
	}()
}

func TestRegistryOddLabelsPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list must panic")
		}
	}()
	r.Counter("agg_odd", "", "key_without_value")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("agg_jobs_total", "jobs by kind", "kind", "query").Add(3)
	r.Counter("agg_jobs_total", "jobs by kind", "kind", "epoch").Add(1)
	r.Gauge("agg_queue_depth", "queued jobs").Set(2)
	r.Histogram("agg_wait_seconds", "queue wait").Observe(4 * time.Millisecond)
	r.GaugeFunc("agg_avail_ratio", "availability", func() float64 { return 0.75 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE agg_jobs_total counter",
		`agg_jobs_total{kind="epoch"} 1`,
		`agg_jobs_total{kind="query"} 3`,
		"# TYPE agg_queue_depth gauge",
		"agg_queue_depth 2",
		"# TYPE agg_wait_seconds histogram",
		`agg_wait_seconds_bucket{le="0.005"} 1`,
		`agg_wait_seconds_bucket{le="+Inf"} 1`,
		"agg_wait_seconds_sum 0.004",
		"agg_wait_seconds_count 1",
		"agg_avail_ratio 0.75",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	// One TYPE line per family name, even with multiple series.
	if strings.Count(text, "# TYPE agg_jobs_total") != 1 {
		t.Fatalf("family must have exactly one TYPE line:\n%s", text)
	}
	if _, err := ParseText(strings.NewReader(text)); err != nil {
		t.Fatalf("own output must parse: %v", err)
	}
}

func TestWriteAllMergesShards(t *testing.T) {
	// Two shard registries with the same family name must merge under one
	// TYPE header, distinguished by the extra shard label.
	r0, r1 := NewRegistry(), NewRegistry()
	r0.Counter("agg_station_jobs_total", "jobs", "kind", "query").Add(2)
	r1.Counter("agg_station_jobs_total", "jobs", "kind", "query").Add(5)

	var sb strings.Builder
	err := WriteAll(&sb,
		Labeled{Registry: r0, Labels: []string{"shard", "0"}},
		Labeled{Registry: r1, Labels: []string{"shard", "1"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if strings.Count(text, "# TYPE agg_station_jobs_total") != 1 {
		t.Fatalf("merged family must have one TYPE line:\n%s", text)
	}
	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("merged exposition must parse: %v\n%s", err, text)
	}
	if samples[`agg_station_jobs_total{shard="0",kind="query"}`] != 2 {
		t.Fatalf("shard 0 series wrong:\n%s", text)
	}
	if samples[`agg_station_jobs_total{shard="1",kind="query"}`] != 5 {
		t.Fatalf("shard 1 series wrong:\n%s", text)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("agg_esc_total", "", "target", "a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `target="a\"b\\c\nd"`) {
		t.Fatalf("label value not escaped:\n%s", sb.String())
	}
}

func TestParseTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"agg_x",            // no value
		"agg_x notanumber", // bad value
		"agg_x{unclosed 1", // malformed labels
		"agg_x 1\nagg_x 2", // duplicate series
		`{le="1"} 3`,       // empty name
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText accepted %q", bad)
		}
	}
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(7)
	g.SetMax(3) // lower values never pull a high-water mark back
	if g.Value() != 7 {
		t.Fatalf("Value = %d, want 7", g.Value())
	}
	var wg sync.WaitGroup
	for w := int64(0); w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				g.SetMax(w*1000 + i)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 7999 {
		t.Fatalf("concurrent SetMax = %d, want 7999", g.Value())
	}
}

func TestSamplesSum(t *testing.T) {
	samples, err := ParseText(strings.NewReader(`
agg_jobs_total{shard="0",kind="sum",outcome="done"} 2
agg_jobs_total{shard="1",kind="sum",outcome="done"} 3
agg_jobs_total{shard="1",kind="max",outcome="failed"} 4
agg_jobs_total_other{outcome="done"} 100
agg_queue_depth 5
`))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"agg_jobs_total", nil, 9},
		{"agg_jobs_total", []string{"outcome", "done"}, 5},
		{"agg_jobs_total", []string{"shard", "1"}, 7},
		{"agg_jobs_total", []string{"shard", "1", "outcome", "done"}, 3},
		{"agg_jobs_total", []string{"kind", "s"}, 0}, // whole values only
		{"agg_queue_depth", nil, 5},
		{"agg_missing", nil, 0},
	} {
		if got := samples.Sum(c.name, c.labels...); got != c.want {
			t.Errorf("Sum(%s, %v) = %v, want %v", c.name, c.labels, got, c.want)
		}
	}
}

// FuzzParseText: ParseText never panics, whatever it is fed, and anything
// the registry renders — any label value, any counter, gauge or duration —
// parses back to the values it was given.
func FuzzParseText(f *testing.F) {
	f.Add("agg_x 1\n# comment\n", "query", int64(3), int64(-2), int64(4_000_000))
	f.Add(`agg_x{a="b"} 1e3`+"\n"+`agg_x{a="c"} NaN`, "a\"b\\c\nd}{ ,=", int64(0), int64(1)<<62, int64(-1))
	f.Add("{} 1\nagg_y{ 2\n 3", "", int64(-5), int64(0), int64(1)<<60)
	f.Fuzz(func(t *testing.T, text, label string, count, gauge, nanos int64) {
		if samples, err := ParseText(strings.NewReader(text)); err == nil {
			samples.Sum("agg_x", "a", label)
		}

		r := NewRegistry()
		r.Counter("agg_fuzz_total", "fuzzed counter", "label", label).Add(count)
		r.Gauge("agg_fuzz_gauge", "fuzzed gauge").Set(gauge)
		r.Histogram("agg_fuzz_seconds", "fuzzed histogram", "label", label).Observe(time.Duration(nanos))
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		samples, err := ParseText(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("own output does not parse: %v\n%s", err, b.String())
		}
		observed := max(nanos, 0) // the histogram clamps negative durations
		sig := "{" + renderLabels([]string{"label", label}) + "}"
		for key, want := range map[string]float64{
			"agg_fuzz_total" + sig:         float64(count),
			"agg_fuzz_gauge":               float64(gauge),
			"agg_fuzz_seconds_count" + sig: 1,
			"agg_fuzz_seconds_sum" + sig:   time.Duration(observed).Seconds(),
		} {
			if got, ok := samples[key]; !ok || got != want {
				t.Errorf("%s = %v (present %v), want %v\n%s", key, got, ok, want, b.String())
			}
		}
		if got := samples.Sum("agg_fuzz_total", "label", label); got != float64(count) {
			t.Errorf("Sum(label=%q) = %v, want %v", label, got, float64(count))
		}
	})
}
