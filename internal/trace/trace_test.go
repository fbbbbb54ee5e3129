package trace

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Type: "x"}) // must not panic
	if tr.Len() != 0 || tr.Total() != 0 {
		t.Error("nil tracer should report zero")
	}
	if tr.Events() != nil {
		t.Error("nil tracer events should be nil")
	}
	if err := tr.Dump(&strings.Builder{}, NewQuery()); err != nil {
		t.Error(err)
	}
}

func TestRecordAndEvents(t *testing.T) {
	tr := New(10)
	tr.Emit(Event{At: time.Second, Node: 3, Cluster: NoCluster, Type: "election",
		Detail: fmt.Sprintf("became head pc=%.2f", 0.25)})
	tr.Emit(Event{At: 2 * time.Second, Node: 4, Cluster: 4, Type: "join", Detail: "joined 3"})
	if tr.Len() != 2 || tr.Total() != 2 {
		t.Fatalf("len=%d total=%d", tr.Len(), tr.Total())
	}
	evs := tr.Events()
	if evs[0].Type != "election" || evs[1].Node != 4 {
		t.Errorf("events = %+v", evs)
	}
	if evs[0].Cluster != NoCluster || evs[1].Cluster != 4 {
		t.Errorf("cluster scope not kept: %d, %d", evs[0].Cluster, evs[1].Cluster)
	}
	if !strings.Contains(evs[0].Detail, "0.25") {
		t.Errorf("detail lost: %q", evs[0].Detail)
	}
	if !strings.Contains(evs[0].String(), "election") {
		t.Errorf("String = %q", evs[0].String())
	}
}

func TestEventStringCarriesCauseAndCluster(t *testing.T) {
	e := Event{At: time.Second, Round: 3, Node: 7, Cluster: 9,
		Phase: PhaseFailover, Type: TypeLifecycle, Cause: StateTakeover, Detail: "head 9 silent"}
	s := e.String()
	for _, want := range []string{"r3", "node=7", "cluster=9", PhaseFailover, TypeLifecycle, StateTakeover, "head 9 silent"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(3)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{At: time.Duration(i) * time.Second, Node: 1, Type: "c", Detail: strconv.Itoa(i)})
	}
	if tr.Len() != 3 || tr.Total() != 5 {
		t.Fatalf("len=%d total=%d", tr.Len(), tr.Total())
	}
	evs := tr.Events()
	// Oldest two evicted; order preserved.
	if evs[0].Detail != "2" || evs[2].Detail != "4" {
		t.Errorf("events = %+v", evs)
	}
}

func TestCapacityClamped(t *testing.T) {
	tr := New(0)
	tr.Emit(Event{Node: 1, Type: "a", Detail: "x"})
	tr.Emit(Event{Node: 1, Type: "a", Detail: "y"})
	if tr.Len() != 1 {
		t.Errorf("len = %d", tr.Len())
	}
}

func TestDumpFilters(t *testing.T) {
	tr := New(10)
	tr.Emit(Event{Node: 1, Type: "election", Detail: "a"})
	tr.Emit(Event{Node: 2, Type: "join", Detail: "b"})
	tr.Emit(Event{Node: 1, Type: "join", Detail: "c"})

	var all strings.Builder
	if err := tr.Dump(&all, NewQuery()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(all.String(), "3 events matched") {
		t.Errorf("all dump:\n%s", all.String())
	}

	var node1 strings.Builder
	if err := tr.Dump(&node1, Query{Round: -1, AnyCluster: true, Node: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(node1.String(), "2 events matched") {
		t.Errorf("node dump:\n%s", node1.String())
	}

	var joins strings.Builder
	if err := tr.Dump(&joins, Query{Round: -1, AnyCluster: true, AnyNode: true, Type: "join"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(joins.String(), "2 events matched") {
		t.Errorf("type dump:\n%s", joins.String())
	}
}

func TestDumpMentionsEviction(t *testing.T) {
	tr := New(1)
	tr.Emit(Event{Node: 1, Type: "a", Detail: "x"})
	tr.Emit(Event{Node: 1, Type: "a", Detail: "y"})
	var b strings.Builder
	if err := tr.Dump(&b, NewQuery()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "evicted") {
		t.Errorf("dump:\n%s", b.String())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	want := []Event{
		{At: time.Second, Round: 1, Node: 3, Cluster: 9, Phase: PhaseAnnounce,
			Type: TypeAlarm, Cause: "own-row-forged", Detail: "observed=1 expected=2"},
		{At: 2 * time.Second, Round: 2, Node: 4, Cluster: NoCluster, Type: TypeCrash},
	}
	for _, ev := range want {
		j.Emit(ev)
	}
	if j.Count() != len(want) {
		t.Fatalf("Count = %d", j.Count())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"type\":\"ok\"}\nnot json\n")); err == nil {
		t.Fatal("expected a line-numbered parse error")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error should name the line: %v", err)
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	evs, err := ReadJSONL(strings.NewReader("\n{\"type\":\"a\"}\n\n{\"type\":\"b\"}\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Type != "a" || evs[1].Type != "b" {
		t.Errorf("events = %+v", evs)
	}
}

// FuzzReadJSONL: ReadJSONL is total on arbitrary input, and every stream
// it accepts re-encodes through NewJSONL and re-reads to equal events.
func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte("{\"at\":1000000000,\"round\":1,\"node\":3,\"cluster\":9,\"phase\":\"announce\",\"type\":\"alarm\",\"cause\":\"own-row-forged\",\"detail\":\"observed=1 expected=2\"}\n"))
	f.Add([]byte("\n{\"type\":\"a\"}\n\n{\"type\":\"b\"}\n"))
	f.Add([]byte("{\"type\":\"ok\"}\nnot json\n"))
	f.Add([]byte("null\r\n{\"node\":-1,\"detail\":\"\\u00ff\\n\"}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		j := NewJSONL(&buf)
		for _, ev := range evs {
			j.Emit(ev)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-read of %q: %v", buf.String(), err)
		}
		if len(back) != len(evs) {
			t.Fatalf("re-read %d events, want %d", len(back), len(evs))
		}
		for i := range evs {
			if back[i] != evs[i] {
				t.Fatalf("event %d: got %+v want %+v", i, back[i], evs[i])
			}
		}
	})
}

type errWriter struct{ failed bool }

func (w *errWriter) Write(p []byte) (int, error) {
	w.failed = true
	return 0, bytes.ErrTooLarge
}

func TestJSONLStickyError(t *testing.T) {
	w := &errWriter{}
	j := NewJSONL(w)
	// Overflow the buffer so the write error surfaces.
	big := Event{Detail: strings.Repeat("x", 1<<17)}
	j.Emit(big)
	j.Emit(big)
	if err := j.Flush(); err == nil {
		t.Fatal("expected sticky write error")
	}
}

func TestFan(t *testing.T) {
	if Fan(nil, nil) != nil {
		t.Error("all-nil fan should disable tracing")
	}
	a, b := New(4), New(4)
	if got := Fan(nil, a); got != Sink(a) {
		t.Error("single live sink should be returned bare")
	}
	s := Fan(a, Fan(b, nil))
	s.Emit(Event{Type: "x"})
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("fan-out lost events: a=%d b=%d", a.Len(), b.Len())
	}
}

// scrapeCounts renders a registry and parses it back, the way /metricsz
// readers see it.
func scrapeCounts(t *testing.T, reg *telemetry.Registry) telemetry.Samples {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParseText(&b)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, b.String())
	}
	return samples
}

func TestStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewCountSink(reg)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // concurrent scrape while emitting must be race-free
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b bytes.Buffer
			_ = reg.WritePrometheus(&b)
		}
	}()
	for i := 0; i < 100; i++ {
		s.Emit(Event{At: time.Duration(i), Round: uint16(i % 4), Phase: PhaseAnnounce, Type: TypeAlarm})
	}
	s.Emit(Event{Round: 9, Type: TypeCrash})
	wg.Wait()
	got := scrapeCounts(t, reg)
	if got.Sum("agg_trace_events_total") != 101 ||
		got[`agg_trace_events_total{type="alarm"}`] != 100 ||
		got[`agg_trace_events_total{type="crash"}`] != 1 ||
		got[`agg_trace_phase_events_total{phase="announce"}`] != 100 ||
		got.Sum("agg_trace_phase_events_total") != 100 {
		t.Errorf("counts = %v", got)
	}
	// The phase-less crash is counted by type only; both gauges are
	// high-water marks, so the later At=0 event does not pull sim time back.
	if got["agg_trace_round"] != 9 || got["agg_trace_sim_time_ns"] != 99 {
		t.Errorf("high-water round/sim time = %v/%v", got["agg_trace_round"], got["agg_trace_sim_time_ns"])
	}
}

// TestCountSinksShareRegistry: sinks over one registry (one per pool
// worker) present a single view — counts add across sinks, disjoint types
// keep their own series, and round and sim time take the furthest
// progress any sink saw rather than a sum.
func TestCountSinksShareRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	if got := scrapeCounts(t, reg); got.Sum("agg_trace_events_total") != 0 || got["agg_trace_round"] != 0 {
		t.Fatalf("empty registry counts = %v", got)
	}
	a, b := NewCountSink(reg), NewCountSink(reg)
	for i := 0; i < 2; i++ {
		a.Emit(Event{At: 100, Round: 7, Phase: PhaseAnnounce, Type: TypeAlarm})
	}
	for i := 0; i < 3; i++ {
		b.Emit(Event{At: 1500, Round: 3, Phase: PhaseAnnounce, Type: TypeAlarm})
	}
	b.Emit(Event{At: 900, Round: 2, Phase: PhaseRadio, Type: TypeDrop})
	got := scrapeCounts(t, reg)
	want := map[string]float64{
		`agg_trace_events_total{type="alarm"}`:           5,
		`agg_trace_events_total{type="drop"}`:            1,
		`agg_trace_phase_events_total{phase="announce"}`: 5,
		`agg_trace_phase_events_total{phase="radio"}`:    1,
		"agg_trace_round":                                7,
		"agg_trace_sim_time_ns":                          1500,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("series = %v, want exactly %v", got, want)
	}
}
