package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type served at
// /metricsz.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Labeled pairs a registry with extra label pairs stamped on every series
// it exposes — how a fleet distinguishes per-shard registries (shard="2")
// inside one exposition without the shards knowing their own ordinals.
type Labeled struct {
	Registry *Registry
	Labels   []string // alternating key, value
}

// WritePrometheus renders the registry as Prometheus text exposition.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WriteAll(w, Labeled{Registry: r})
}

// WriteAll renders several registries as one exposition: families with
// the same name are merged under a single HELP/TYPE header (required by
// the format — one TYPE line per metric name), with each group's extra
// labels keeping its series distinct. Family order follows first
// appearance across groups; series within a family sort by label
// signature so output is deterministic.
func WriteAll(w io.Writer, groups ...Labeled) error {
	bw := bufio.NewWriter(w)
	// Snapshot every registry under its lock first — the family/series
	// maps and each series' handle fields, which Counter and friends set
	// under that lock — then render without holding anything (the handles
	// themselves are concurrency-safe).
	type part struct {
		help, kind string
		extra      string
		sigs       []string
		series     []series
	}
	merged := make(map[string][]part)
	var order []string
	for _, g := range groups {
		if g.Registry == nil {
			continue
		}
		extra := renderLabels(g.Labels)
		g.Registry.mu.Lock()
		for _, name := range g.Registry.order {
			f := g.Registry.fams[name]
			p := part{help: f.help, kind: f.kind, extra: extra,
				sigs: append([]string(nil), f.order...)}
			sort.Strings(p.sigs)
			for _, sig := range p.sigs {
				p.series = append(p.series, *f.series[sig])
			}
			if _, seen := merged[name]; !seen {
				order = append(order, name)
			}
			merged[name] = append(merged[name], p)
		}
		g.Registry.mu.Unlock()
	}
	for _, name := range order {
		parts := merged[name]
		if parts[0].help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, parts[0].help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, parts[0].kind)
		for _, p := range parts {
			for i, sig := range p.sigs {
				writeSeries(bw, name, p.kind, joinLabels(p.extra, sig), &p.series[i])
			}
		}
	}
	return bw.Flush()
}

// writeSeries renders one labeled instrument. Counters and gauges are one
// sample line; histograms expand to the cumulative le-bucket series plus
// _sum and _count, with durations converted to seconds per Prometheus
// convention.
func writeSeries(w *bufio.Writer, name, kind, labels string, s *series) {
	switch kind {
	case kindHistogram:
		buckets, count, sum := s.h.cumulative()
		for i, le := range exposeBounds {
			fmt.Fprintf(w, "%s_bucket%s %d\n", name,
				braced(joinLabels(labels, `le="`+formatFloat(le)+`"`)), buckets[i])
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, braced(joinLabels(labels, `le="+Inf"`)), count)
		fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(labels), formatFloat(sum.Seconds()))
		fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), count)
	default:
		if s.fn != nil {
			fmt.Fprintf(w, "%s%s %s\n", name, braced(labels), formatFloat(s.fn()))
			return
		}
		var v int64
		if s.c != nil {
			v = s.c.Value()
		} else if s.g != nil {
			v = s.g.Value()
		}
		fmt.Fprintf(w, "%s%s %d\n", name, braced(labels), v)
	}
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// renderLabels renders alternating key/value pairs as `k="v",…` with the
// value escaped per the exposition format.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	return a + "," + b
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// Samples is a parsed exposition: every sample keyed by its full series
// identity, `name{k="v",…}` (or the bare name when unlabeled).
type Samples map[string]float64

// Sum totals the samples of metric name whose labels include every given
// key/value pair (alternating key, value) — e.g. Sum("agg_station_jobs_total",
// "outcome", "done") adds the done jobs of every kind on every shard.
func (s Samples) Sum(name string, labels ...string) float64 {
	var want []string
	for i := 0; i+1 < len(labels); i += 2 {
		want = append(want, ","+renderLabels(labels[i:i+2])+",")
	}
	var total float64
	for key, v := range s {
		base, set, _ := strings.Cut(key, "{")
		if base != name {
			continue
		}
		set = "," + strings.TrimSuffix(set, "}") + ","
		match := true
		for _, w := range want {
			match = match && strings.Contains(set, w)
		}
		if match {
			total += v
		}
	}
	return total
}

// ParseText is a minimal exposition-format reader used by the
// metrics-smoke gates and the serving tests: it validates the line grammar
// this package emits (comments, `name{labels} value` samples) and returns
// every sample keyed by its full series identity (name + rendered labels).
// It is a checker for our own output, not a general Prometheus parser.
func ParseText(r io.Reader) (Samples, error) {
	out := make(Samples)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		cut := strings.LastIndexByte(text, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("telemetry: exposition line %d: no value: %q", line, text)
		}
		key, val := text[:cut], text[cut+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: exposition line %d: bad value %q: %v", line, val, err)
		}
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") || i == 0 {
				return nil, fmt.Errorf("telemetry: exposition line %d: malformed labels: %q", line, key)
			}
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("telemetry: exposition line %d: duplicate series %q", line, key)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
