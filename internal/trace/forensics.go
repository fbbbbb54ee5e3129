package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/topo"
)

// Offline forensics over a recorded event stream: the analysis half of
// cmd/aggtrace. Everything here operates on a plain []Event (typically
// loaded via ReadJSONL) so it is equally usable in tests against an
// in-memory Tracer.

// Query selects a slice of a trace. The zero value matches nothing
// useful — build one with NewQuery and tighten from there.
type Query struct {
	Round      int // -1 = any
	Cluster    topo.NodeID
	AnyCluster bool
	Node       topo.NodeID
	AnyNode    bool
	Type       string // empty = any
	Phase      string // empty = any
}

// NewQuery returns the match-everything query.
func NewQuery() Query {
	return Query{Round: -1, AnyCluster: true, AnyNode: true}
}

// Match reports whether the event satisfies every set constraint.
func (q Query) Match(e Event) bool {
	if q.Round >= 0 && int(e.Round) != q.Round {
		return false
	}
	if !q.AnyCluster && e.Cluster != q.Cluster {
		return false
	}
	if !q.AnyNode && e.Node != q.Node {
		return false
	}
	if q.Type != "" && e.Type != q.Type {
		return false
	}
	if q.Phase != "" && e.Phase != q.Phase {
		return false
	}
	return true
}

// Select returns the matching events in their original order.
func Select(events []Event, q Query) []Event {
	var out []Event
	for _, e := range events {
		if q.Match(e) {
			out = append(out, e)
		}
	}
	return out
}

// Summary tallies a trace slice: events by type, by phase, by lifecycle
// state, plus the rounds and clusters it touches.
type Summary struct {
	Total    int
	ByType   map[string]int
	ByPhase  map[string]int
	ByState  map[string]int // lifecycle events only, keyed by state (Cause)
	Rounds   []int
	Clusters []topo.NodeID
}

// Summarize builds a Summary over the matching events.
func Summarize(events []Event, q Query) Summary {
	s := Summary{
		ByType:  make(map[string]int),
		ByPhase: make(map[string]int),
		ByState: make(map[string]int),
	}
	rounds := make(map[int]bool)
	clusters := make(map[topo.NodeID]bool)
	for _, e := range events {
		if !q.Match(e) {
			continue
		}
		s.Total++
		s.ByType[e.Type]++
		if e.Phase != "" {
			s.ByPhase[e.Phase]++
		}
		if e.Type == TypeLifecycle {
			s.ByState[e.Cause]++
		}
		rounds[int(e.Round)] = true
		if e.Cluster >= 0 {
			clusters[e.Cluster] = true
		}
	}
	for r := range rounds {
		s.Rounds = append(s.Rounds, r)
	}
	sort.Ints(s.Rounds)
	for c := range clusters {
		s.Clusters = append(s.Clusters, c)
	}
	sort.Slice(s.Clusters, func(a, b int) bool { return s.Clusters[a] < s.Clusters[b] })
	return s
}

// Write renders the summary.
func (s Summary) Write(w io.Writer) {
	fmt.Fprintf(w, "%d events, %d rounds, %d clusters\n", s.Total, len(s.Rounds), len(s.Clusters))
	writeCounts(w, "by type:", s.ByType)
	writeCounts(w, "by phase:", s.ByPhase)
	if len(s.ByState) > 0 {
		writeCounts(w, "lifecycle states:", s.ByState)
	}
}

func writeCounts(w io.Writer, title string, m map[string]int) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%s\n", title)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-28s %d\n", k, m[k])
	}
}

// PhaseSpan is one protocol phase window as observed in the trace: its
// opening mark and the duration until the next mark (or trace end).
type PhaseSpan struct {
	Round    uint16
	Phase    string
	At       time.Duration
	Duration time.Duration
	Detail   string
}

// Timeline extracts the matching phase windows, in order. Each span lasts
// until the next phase mark in the full trace — filtered or not, so a
// one-round timeline still ends where the next round begins — and the
// final window runs to the latest event time in the trace.
func Timeline(events []Event, q Query) []PhaseSpan {
	var all []Event
	var end time.Duration
	for _, e := range events {
		if e.At > end {
			end = e.At
		}
		if e.Type == TypePhase {
			all = append(all, e)
		}
	}
	var spans []PhaseSpan
	for i, m := range all {
		if !q.Match(m) {
			continue
		}
		until := end
		if i+1 < len(all) {
			until = all[i+1].At
		}
		spans = append(spans, PhaseSpan{
			Round: m.Round, Phase: m.Phase, At: m.At,
			Duration: until - m.At, Detail: m.Detail,
		})
	}
	return spans
}

// WriteTimeline renders phase spans, one per line.
func WriteTimeline(w io.Writer, spans []PhaseSpan) {
	for _, s := range spans {
		fmt.Fprintf(w, "%12v r%-3d %-10s +%-12v %s\n", s.At, s.Round, s.Phase, s.Duration, s.Detail)
	}
}

// ClusterKey identifies one cluster's life in one round.
type ClusterKey struct {
	Round   uint16
	Cluster topo.NodeID
}

// ClusterLife is a cluster's reconstructed state machine for one round:
// its lifecycle transitions in time order plus the point events (crashes,
// watchdogs, alarms) that explain them.
type ClusterLife struct {
	Key      ClusterKey
	States   []Event // TypeLifecycle, in time order
	Context  []Event // crash/watchdog/alarm/recover events scoped to the cluster
	Takeover bool    // the chain contains a takeover claim
}

// Chain renders the state machine as "formed → exchanging → … ".
func (c ClusterLife) Chain() string {
	parts := make([]string, len(c.States))
	for i, e := range c.States {
		parts[i] = e.Cause
	}
	return strings.Join(parts, " → ")
}

// Lifecycles groups the matching lifecycle events per (round, cluster)
// and attaches the explanatory point events, returning chains sorted by
// round then cluster.
func Lifecycles(events []Event, q Query) []ClusterLife {
	byKey := make(map[ClusterKey]*ClusterLife)
	order := []ClusterKey{}
	get := func(k ClusterKey) *ClusterLife {
		c := byKey[k]
		if c == nil {
			c = &ClusterLife{Key: k}
			byKey[k] = c
			order = append(order, k)
		}
		return c
	}
	for _, e := range events {
		if e.Cluster < 0 || !q.Match(e) {
			continue
		}
		k := ClusterKey{Round: e.Round, Cluster: e.Cluster}
		switch e.Type {
		case TypeLifecycle:
			c := get(k)
			c.States = append(c.States, e)
			if e.Cause == StateTakeover {
				c.Takeover = true
			}
		case TypeCrash, TypeWatchdog, TypeAlarm, TypeRecover:
			get(k).Context = append(get(k).Context, e)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].Round != order[b].Round {
			return order[a].Round < order[b].Round
		}
		return order[a].Cluster < order[b].Cluster
	})
	out := make([]ClusterLife, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	return out
}

// WriteLifecycles renders each cluster's chain with its transitions and
// the point events interleaved in time order underneath.
func WriteLifecycles(w io.Writer, lives []ClusterLife) {
	for _, c := range lives {
		fmt.Fprintf(w, "r%d cluster %d: %s\n", c.Key.Round, c.Key.Cluster, c.Chain())
		merged := append(append([]Event{}, c.States...), c.Context...)
		sort.SliceStable(merged, func(a, b int) bool { return merged[a].At < merged[b].At })
		for _, e := range merged {
			fmt.Fprintf(w, "  %s\n", e.String())
		}
	}
}

// Chain is one culprit event plus the ordered causal context that led to
// it — the "-why" rendering unit.
type Chain struct {
	Culprit Event
	Context []Event
}

// suspectOf extracts the suspect node an alarm's detail names.
func suspectOf(e Event) (topo.NodeID, bool) {
	var id int
	if _, err := fmt.Sscanf(e.Detail, "suspect=%d", &id); err != nil {
		return 0, false
	}
	return topo.NodeID(id), true
}

// AlarmChains builds one causal chain per matching alarm: every earlier
// same-round event scoped to the alarm's cluster or its suspect node that
// can explain the verdict (crashes, watchdogs, lifecycle transitions,
// elections, prior alarms).
func AlarmChains(events []Event, q Query) []Chain {
	aq := q
	aq.Type = TypeAlarm
	var out []Chain
	for _, a := range events {
		if !aq.Match(a) {
			continue
		}
		suspect, hasSuspect := suspectOf(a)
		var ctx []Event
		for _, e := range events {
			if e.Round != a.Round || e.At > a.At || e == a {
				continue
			}
			switch e.Type {
			case TypeCrash, TypeWatchdog, TypeLifecycle, TypeElection, TypeAlarm:
			default:
				continue
			}
			inCluster := a.Cluster >= 0 && e.Cluster == a.Cluster
			bySuspect := hasSuspect && (e.Node == suspect || e.Cluster == suspect)
			if inCluster || bySuspect {
				ctx = append(ctx, e)
			}
		}
		out = append(out, Chain{Culprit: a, Context: ctx})
	}
	return out
}

// TakeoverChains builds one chain per cluster whose lifecycle contains a
// takeover claim: the culprit is the claim itself, the context the full
// reconstructed chain (states + crashes/watchdogs) around it.
func TakeoverChains(events []Event, q Query) []Chain {
	var out []Chain
	for _, c := range Lifecycles(events, q) {
		if !c.Takeover {
			continue
		}
		var claim Event
		for _, e := range c.States {
			if e.Cause == StateTakeover {
				claim = e
				break
			}
		}
		merged := append(append([]Event{}, c.States...), c.Context...)
		sort.SliceStable(merged, func(a, b int) bool { return merged[a].At < merged[b].At })
		out = append(out, Chain{Culprit: claim, Context: merged})
	}
	return out
}

// DropChains groups matching drop events by cause, rendering each cause
// as one chain whose culprit is the first drop and whose context is the
// rest (bounded to keep the output readable).
func DropChains(events []Event, q Query) []Chain {
	dq := q
	dq.Type = TypeDrop
	byCause := make(map[string][]Event)
	var causes []string
	for _, e := range events {
		if !dq.Match(e) {
			continue
		}
		if _, seen := byCause[e.Cause]; !seen {
			causes = append(causes, e.Cause)
		}
		byCause[e.Cause] = append(byCause[e.Cause], e)
	}
	sort.Strings(causes)
	out := make([]Chain, 0, len(causes))
	for _, c := range causes {
		evs := byCause[c]
		out = append(out, Chain{Culprit: evs[0], Context: evs[1:]})
	}
	return out
}

// actionOf extracts the campaign action id an attack or breach event's
// detail names (the "action=<id>" token every campaign event leads with).
func actionOf(e Event) (int, bool) {
	var id int
	if _, err := fmt.Sscanf(e.Detail, "action=%d", &id); err != nil {
		return 0, false
	}
	return id, true
}

// BreachChains builds one causal chain per adversary action: the culprit
// is the TypeAttack event recording the action (tamper, forgery, replay,
// collusion capture), the context everything the trace shows following
// from it — breach events carrying the same action id, plus every
// same-round witness verdict, alarm, and lifecycle transition scoped to
// the attacked cluster, in time order. A chain ending in an alarm reads
// as a catch; one ending in a TypeBreach event reads as a silent breach.
// Unlike AlarmChains this looks forward: the attack precedes its
// consequences.
func BreachChains(events []Event, q Query) []Chain {
	aq := q
	aq.Type = TypeAttack
	var out []Chain
	for _, a := range events {
		if !aq.Match(a) {
			continue
		}
		id, hasID := actionOf(a)
		var ctx []Event
		for _, e := range events {
			if e.Round != a.Round || e == a {
				continue
			}
			switch e.Type {
			case TypeBreach:
				if eid, ok := actionOf(e); ok && hasID && eid == id {
					ctx = append(ctx, e)
				}
				continue
			case TypeWitness, TypeAlarm, TypeLifecycle:
			default:
				continue
			}
			if a.Cluster >= 0 && e.Cluster == a.Cluster {
				ctx = append(ctx, e)
			}
		}
		sort.SliceStable(ctx, func(x, y int) bool { return ctx[x].At < ctx[y].At })
		out = append(out, Chain{Culprit: a, Context: ctx})
	}
	return out
}

// WriteChains renders chains: the culprit line, then its context indented.
func WriteChains(w io.Writer, chains []Chain, maxContext int) {
	for i, c := range chains {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s\n", c.Culprit.String())
		ctx := c.Context
		elided := 0
		if maxContext > 0 && len(ctx) > maxContext {
			elided = len(ctx) - maxContext
			ctx = ctx[:maxContext]
		}
		for _, e := range ctx {
			fmt.Fprintf(w, "    %s\n", e.String())
		}
		if elided > 0 {
			fmt.Fprintf(w, "    … %d more\n", elided)
		}
	}
}
