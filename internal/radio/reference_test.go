package radio

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// refFrame is one frame as the reference model sees it.
type refFrame struct {
	from, to   topo.NodeID
	kind       message.Kind
	seq        uint16
	size       int
	start, end time.Duration
}

// refMedium is the medium's former overlap rule, kept as a test-only model.
// It holds every frame ever sent and answers each question by scanning all
// of them: a reception collides when any other frame overlapping it in time
// was audible at the receiver (sent by the receiver itself, or by a node in
// range of it). Fading and loss are drawn from its own RNG, seeded like the
// medium's, in the medium's per-receiver order.
type refMedium struct {
	net    *topo.Network
	cfg    Config
	rng    *rand.Rand
	frames []*refFrame
	log    []string

	tx, txBytes, rx, rxBytes, collisions, drops int
	rxPerNode                                   []int
}

func (r *refMedium) audible(o *refFrame, at topo.NodeID) bool {
	return o.from == at || r.net.InRange(o.from, at)
}

func (r *refMedium) busyWithin(id topo.NodeID, guard, now time.Duration) bool {
	for _, o := range r.frames {
		if o.start <= now && o.end+guard > now && r.audible(o, id) {
			return true
		}
	}
	return false
}

func (r *refMedium) transmitting(id topo.NodeID, now time.Duration) bool {
	for _, o := range r.frames {
		if o.from == id && o.start <= now && now < o.end {
			return true
		}
	}
	return false
}

func (r *refMedium) corrupted(t *refFrame, rcv topo.NodeID) bool {
	for _, o := range r.frames {
		if o != t && o.end > t.start && o.start < t.end && r.audible(o, rcv) {
			return true
		}
	}
	return false
}

func (r *refMedium) faded(t *refFrame, rcv topo.NodeID) bool {
	if !r.cfg.Fading {
		return false
	}
	d := r.net.Position(t.from).Dist(r.net.Position(rcv))
	return r.rng.Float64() < r.cfg.EdgeLoss*math.Pow(d/r.net.Range(), r.cfg.FadingBeta)
}

func (r *refMedium) lost(t *refFrame) bool {
	rate := r.cfg.LossRate
	if v, ok := r.cfg.LossByKind[t.kind.String()]; ok {
		rate = v
	}
	return rate > 0 && r.rng.Float64() < rate
}

func (r *refMedium) send(f *refFrame) {
	r.frames = append(r.frames, f)
	r.tx++
	r.txBytes += f.size
}

// deliver decides f's reception at every neighbour of its sender, at its end.
func (r *refMedium) deliver(f *refFrame) {
	for i, rcv := range r.net.Neighbors(f.from) {
		cause := ""
		switch {
		case !r.cfg.Ideal && r.corrupted(f, rcv):
			cause = "collision"
			r.collisions++
		case !r.cfg.Ideal && r.faded(f, rcv):
			cause = "fading"
		case !r.cfg.Ideal && r.lost(f):
			cause = "loss"
		}
		if cause != "" {
			r.drops++
			r.log = append(r.log, dropLine(f.end, rcv, f.kind, f.from, f.size, cause))
			continue
		}
		r.rx++
		r.rxBytes += f.size
		r.rxPerNode[rcv]++
		if f.kind != message.KindAck || rcv == f.to {
			r.log = append(r.log, rxLine(f.end, rcv, f.from, f.seq, r.net.Link(f.from, i)))
		}
	}
}

func dropLine(at time.Duration, rcv topo.NodeID, kind message.Kind, from topo.NodeID, size int, cause string) string {
	return fmt.Sprintf("%v %d drop %s from %d (%dB) %s", at, rcv, kind, from, size, cause)
}

func rxLine(at time.Duration, rcv, from topo.NodeID, seq uint16, link int) string {
	return fmt.Sprintf("%v %d rx from %d seq %d link %d", at, rcv, from, seq, link)
}

// logSink turns the medium's drop events into the reference model's lines.
type logSink struct{ log *[]string }

func (s logSink) Emit(ev trace.Event) {
	*s.log = append(*s.log, fmt.Sprintf("%v %d drop %s %s", ev.At, ev.Node, ev.Detail, ev.Cause))
}

// twinSchedule drives one medium and the reference model with the same
// seeded random schedule and compares them: every (frame, receiver)
// outcome in delivery order, the recorder's counters, and Busy,
// BusyWithin(DIFS) and Transmitting at random probe instants.
//
// Start times and airtimes are whole multiples of one byte time (8 µs at
// 1 Mbps), so frames often start at the same instant, and a frame often
// starts exactly when another ends. Some launches are scheduled up front at
// another frame's end (they run before its delivery), others from inside a
// launch at its own end (they run after it). A quarter of the frames are
// ACKs, and some launches are raw sends from a node already on the air. The
// first schedule is cut halfway and both sides are Reset with frames in
// flight; a second schedule then runs to the end on the reset medium.
func twinSchedule(t *testing.T, seed int64, cfg Config) (frames, receptions, collisions int) {
	t.Helper()
	net, err := topo.NewNetwork(topo.Config{
		Field: geom.Field{Width: 300, Height: 300}, Range: 70, Nodes: 60, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	rec := metrics.NewRecorder()
	med, err := NewMedium(eng, net, rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refMedium{net: net, cfg: cfg, rng: rand.New(rand.NewSource(seed)), rxPerNode: make([]int, net.Size())}
	med.SetFadingSource(rand.New(rand.NewSource(seed)))
	var got []string
	med.SetSink(logSink{&got})
	med.SetHandler(func(at topo.NodeID, link int, msg *message.Message) {
		got = append(got, rxLine(eng.Now(), at, msg.From, msg.Seq, link))
	})

	const byteTime = 8 * time.Microsecond
	const window = 20000 * byteTime
	const difs = 60 * time.Microsecond
	sched := rand.New(rand.NewSource(seed ^ 0x7e57))
	var seq uint16
	var prevFrom topo.NodeID
	var prevEnd time.Duration
	var send func()
	send = func() {
		now := eng.Now()
		from := topo.NodeID(sched.Intn(net.Size()))
		if now < prevEnd && sched.Intn(4) == 0 {
			from = prevFrom // a raw send over the node's own frame
		}
		seq++
		f := &refFrame{from: from, seq: seq, start: now}
		nbs := net.Neighbors(from)
		var dur time.Duration
		if sched.Intn(4) == 0 && len(nbs) > 0 {
			f.to, f.kind = nbs[sched.Intn(len(nbs))], message.KindAck
			dur = med.TransmitAck(from, f.to, 1, seq)
			f.size = (&message.Message{Kind: message.KindAck, From: from, To: f.to, Round: 1, Seq: seq}).WireSize()
		} else {
			msg := message.Build(message.KindReading, from, message.BroadcastID, 1, make([]byte, sched.Intn(120)))
			msg.Seq = seq
			if dur, err = med.Transmit(from, msg); err != nil {
				t.Fatal(err)
			}
			f.to, f.kind, f.size = msg.To, msg.Kind, msg.WireSize()
		}
		f.end = now + dur
		ref.send(f)
		eng.At(f.end, func() { ref.deliver(f) })
		prevFrom, prevEnd = from, f.end
		if sched.Intn(10) == 0 {
			eng.At(f.end, send) // after f's delivery, at the same instant
		}
		frames++
	}
	probe := func() {
		now := eng.Now()
		id := topo.NodeID(sched.Intn(net.Size()))
		if b, w := med.Busy(id), ref.busyWithin(id, 0, now); b != w {
			t.Errorf("seed %d t=%v: Busy(%d) = %v, reference %v", seed, now, id, b, w)
		}
		if b, w := med.BusyWithin(id, difs), ref.busyWithin(id, difs, now); b != w {
			t.Errorf("seed %d t=%v: BusyWithin(%d, DIFS) = %v, reference %v", seed, now, id, b, w)
		}
		if b, w := med.Transmitting(id), ref.transmitting(id, now); b != w {
			t.Errorf("seed %d t=%v: Transmitting(%d) = %v, reference %v", seed, now, id, b, w)
		}
	}
	schedule := func() {
		for i := 0; i < 400; i++ {
			at := time.Duration(sched.Intn(int(window/byteTime))) * byteTime
			eng.At(at, send)
			if sched.Intn(5) == 0 {
				eng.At(at, send) // same instant
			}
			if sched.Intn(5) == 0 {
				// At the end of a frame of a given size started at `at`:
				// before that frame's delivery.
				eng.At(at+med.AirTime(message.PHYOverhead+message.HeaderSize+sched.Intn(120)), send)
			}
		}
		for i := 0; i < 300; i++ {
			at := time.Duration(sched.Intn(int(window/byteTime)+300)) * byteTime
			if i%3 == 0 {
				at += time.Duration(sched.Intn(int(byteTime)))
			}
			eng.At(at, probe)
		}
	}
	schedule()
	if err := eng.Run(window / 2); err != nil {
		t.Fatal(err)
	}
	compareTwin(t, seed, "first half", got, ref, rec)
	receptions, collisions = ref.rx+ref.drops, ref.collisions
	eng.Reset()
	rec.Reset()
	med.Reset()
	ref.frames, ref.log, got = nil, nil, nil
	ref.tx, ref.txBytes, ref.rx, ref.rxBytes, ref.collisions, ref.drops = 0, 0, 0, 0, 0, 0
	clear(ref.rxPerNode)
	prevEnd = 0
	schedule()
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	compareTwin(t, seed, "after Reset", got, ref, rec)
	return frames, receptions + ref.rx + ref.drops, collisions + ref.collisions
}

func compareTwin(t *testing.T, seed int64, stage string, got []string, ref *refMedium, rec *metrics.Recorder) {
	t.Helper()
	if !slices.Equal(got, ref.log) {
		i := 0
		for i < min(len(got), len(ref.log)) && got[i] == ref.log[i] {
			i++
		}
		t.Fatalf("seed %d %s: outcome %d differs (medium %d lines, reference %d):\nmedium:    %s\nreference: %s",
			seed, stage, i, len(got), len(ref.log), at(got, i), at(ref.log, i))
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"TotalTxMessages", rec.TotalTxMessages(), ref.tx},
		{"TotalTxBytes", rec.TotalTxBytes(), ref.txBytes},
		{"TotalRxMessages", rec.TotalRxMessages(), ref.rx},
		{"TotalRxBytes", rec.TotalRxBytes(), ref.rxBytes},
		{"Collisions", rec.Collisions(), ref.collisions},
		{"Dropped", rec.Dropped(), ref.drops},
	} {
		if c.got != c.want {
			t.Errorf("seed %d %s: %s = %d, reference %d", seed, stage, c.name, c.got, c.want)
		}
	}
	for id, want := range ref.rxPerNode {
		if got := rec.NodeRxMessages(topo.NodeID(id)); got != want {
			t.Errorf("seed %d %s: NodeRxMessages(%d) = %d, reference %d", seed, stage, id, got, want)
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end)"
}

// TestMediumMatchesReference holds the per-node channel state to the
// O(active) overlap rule on ideal, default and fading (plus injected loss)
// channels.
func TestMediumMatchesReference(t *testing.T) {
	fading := FadingConfig()
	fading.LossRate = 0.05
	fading.LossByKind = map[string]float64{message.KindAck.String(): 0.2}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"ideal", Config{BitrateBps: 1e6, Ideal: true}},
		{"default", DefaultConfig()},
		{"fading", fading},
	} {
		t.Run(c.name, func(t *testing.T) {
			var frames, receptions, collisions int
			for seed := int64(1); seed <= 12; seed++ {
				f, r, c := twinSchedule(t, seed, c.cfg)
				frames, receptions, collisions = frames+f, receptions+r, collisions+c
			}
			t.Logf("%d frames, %d receptions decided, %d collided", frames, receptions, collisions)
		})
	}
}
