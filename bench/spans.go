package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// span is one timed interval around a call the benchmark makes into a
// layer. Spans of one round or request share a trace id; Parent links a
// span to the span that caused it (0 for a root). Ids are unique within a
// workload.
type span struct {
	Workload string `json:"workload"`
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Trace    string `json:"trace"`
	Start    int64  `json:"start_ns"` // since the recorder was created
	End      int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRec keeps spans in memory until the run ends. A nil *spanRec records
// nothing, so untraced runs pass nil through the same code.
type spanRec struct {
	mu       sync.Mutex
	workload string
	epoch    time.Time
	spans    []span
}

func newSpanRec(workload string) *spanRec { return &spanRec{workload: workload, epoch: time.Now()} }

// add records one span and returns its id.
func (r *spanRec) add(parent int64, name, traceID string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{Workload: r.workload, ID: id, Parent: parent, Name: name, Trace: traceID,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	return id
}

// writeJSONL writes every span as one JSON object per line.
func (r *spanRec) writeJSONL(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfMs groups spans by name and returns each span's self time in
// milliseconds: its duration minus the part of it its children cover.
func (r *spanRec) selfMs() map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range r.spans {
		self := s.dur() - covered(s, children[s.ID])
		out[s.Name] = append(out[s.Name], ms(self))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	total += curE - curS
	return time.Duration(total)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phaseClock is a trace.Sink that stamps wall time at each phase mark the
// round engine emits and ignores every other event. Installed on an
// environment it turns one round into phase spans without touching the
// program's code.
type phaseClock struct {
	marks []phaseMark
}

type phaseMark struct {
	phase string
	at    time.Time
}

func (c *phaseClock) Emit(ev trace.Event) {
	if ev.Type == trace.TypePhase {
		c.marks = append(c.marks, phaseMark{ev.Phase, time.Now()})
	}
}

// flush records the marks since the last flush as children of a round
// span [start, end] named root: each phase runs from its mark to the next
// mark, the last one to the end of the round. keep > 0 records only the
// first keep phases.
func (c *phaseClock) flush(rec *spanRec, root, traceID string, start, end time.Time, keep int) {
	id := rec.add(0, root, traceID, start, end)
	for i, m := range c.marks {
		if keep > 0 && i >= keep {
			break
		}
		stop := end
		if i+1 < len(c.marks) {
			stop = c.marks[i+1].at
		}
		rec.add(id, "core."+m.phase, traceID, m.at, stop)
	}
	c.marks = c.marks[:0]
}
