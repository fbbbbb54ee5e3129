package radio

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topo"
)

// lineNetwork builds a 1D chain: node i at x = i*40 with range 50, so each
// node hears only its immediate neighbours.
func lineNetwork(t *testing.T, n int) *topo.Network {
	t.Helper()
	net, err := topo.NewNetwork(topo.Config{
		Field: geom.Field{Width: float64(n * 40), Height: 10},
		Range: 50,
		Nodes: n,
		Seed:  1,
		Grid:  false,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// chainMedium deterministically repositions nodes into a chain by rebuilding
// with a grid deploy; instead we use a tailored helper that constructs the
// topology via a thin wrapper. Since topo doesn't expose custom positions,
// tests below use seeds/sizes chosen to give the structure they need.

func testSetup(t *testing.T, nodes int, seed int64, cfg Config) (*sim.Engine, *topo.Network, *metrics.Recorder, *Medium) {
	t.Helper()
	net, err := topo.NewNetwork(topo.Config{
		Field:        geom.Field{Width: 100, Height: 100},
		Range:        200, // full connectivity: everyone hears everyone
		Nodes:        nodes,
		Seed:         seed,
		BaseAtCenter: true,
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
	return eng, net, rec, med
}

func frame(from, to topo.NodeID) *message.Message {
	return message.Build(message.KindReading, from, to, 1,
		message.MarshalValue(message.Value{V: 7}))
}

func TestNewMediumValidation(t *testing.T) {
	eng := sim.NewEngine()
	net := lineNetwork(t, 3)
	if _, err := NewMedium(eng, net, nil, Config{BitrateBps: 0}); err == nil {
		t.Error("zero bitrate should error")
	}
}

func TestAirTime(t *testing.T) {
	_, _, _, med := testSetup(t, 2, 1, DefaultConfig())
	// 25 bytes at 1 Mbps = 200 microseconds.
	if got := med.AirTime(25); got != 200*time.Microsecond {
		t.Errorf("AirTime(25) = %v", got)
	}
}

func TestBroadcastReachesAllNeighbors(t *testing.T) {
	eng, _, rec, med := testSetup(t, 5, 2, DefaultConfig())
	got := make(map[topo.NodeID]int)
	med.SetHandler(func(at topo.NodeID, _ int, msg *message.Message) {
		got[at]++
	})
	if _, err := med.Transmit(0, frame(0, message.BroadcastID)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("delivered to %d nodes, want 4 (all but sender)", len(got))
	}
	if got[0] != 0 {
		t.Error("sender must not hear its own frame")
	}
	if rec.TotalTxMessages() != 1 || rec.TotalRxMessages() != 4 {
		t.Errorf("tx=%d rx=%d", rec.TotalTxMessages(), rec.TotalRxMessages())
	}
}

func TestPromiscuousDelivery(t *testing.T) {
	// A unicast frame is still heard by third parties (witness overhearing).
	eng, _, _, med := testSetup(t, 3, 3, DefaultConfig())
	heard := make(map[topo.NodeID]*message.Message)
	med.SetHandler(func(at topo.NodeID, _ int, msg *message.Message) {
		heard[at] = msg
	})
	if _, err := med.Transmit(0, frame(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if heard[1] == nil || heard[2] == nil {
		t.Fatalf("unicast not overheard: %v", heard)
	}
	if heard[2].To != 1 {
		t.Errorf("overheard frame To = %v", heard[2].To)
	}
}

func TestCollisionDropsBoth(t *testing.T) {
	eng, _, rec, med := testSetup(t, 4, 4, DefaultConfig())
	delivered := 0
	med.SetHandler(func(at topo.NodeID, _ int, msg *message.Message) {
		delivered++
	})
	// Two simultaneous transmissions; everyone is in range of both.
	if _, err := med.Transmit(0, frame(0, message.BroadcastID)); err != nil {
		t.Fatal(err)
	}
	if _, err := med.Transmit(1, frame(1, message.BroadcastID)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Errorf("delivered %d frames during collision, want 0", delivered)
	}
	if rec.Dropped() == 0 {
		t.Error("drops not recorded")
	}
}

func TestIdealChannelIgnoresCollisions(t *testing.T) {
	eng, _, _, med := testSetup(t, 4, 4, Config{BitrateBps: 1e6, Ideal: true})
	delivered := 0
	med.SetHandler(func(at topo.NodeID, _ int, msg *message.Message) {
		delivered++
	})
	med.Transmit(0, frame(0, message.BroadcastID))
	med.Transmit(1, frame(1, message.BroadcastID))
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// Each broadcast reaches the 3 other nodes.
	if delivered != 6 {
		t.Errorf("delivered = %d, want 6", delivered)
	}
}

func TestHalfDuplexReceiverTransmitting(t *testing.T) {
	eng, _, _, med := testSetup(t, 3, 5, DefaultConfig())
	received := make(map[topo.NodeID]bool)
	med.SetHandler(func(at topo.NodeID, _ int, msg *message.Message) {
		received[at] = true
	})
	// Node 1 transmits a long frame; node 0 starts mid-way. Node 1 must not
	// receive node 0's frame (it was talking), and 2 hears neither cleanly.
	long := message.Build(message.KindReading, 1, message.BroadcastID, 1, make([]byte, 200))
	med.Transmit(1, long)
	eng.After(100*time.Microsecond, func() {
		med.Transmit(0, frame(0, message.BroadcastID))
	})
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if received[1] {
		t.Error("transmitting node received a frame (half-duplex violated)")
	}
	if received[2] {
		t.Error("node 2 should lose both frames to the collision")
	}
}

func TestSequentialTransmissionsAllDelivered(t *testing.T) {
	eng, _, rec, med := testSetup(t, 3, 6, DefaultConfig())
	count := 0
	med.SetHandler(func(at topo.NodeID, _ int, msg *message.Message) {
		count++
	})
	// Space transmissions beyond airtime: no overlap, no loss.
	for i := 0; i < 5; i++ {
		i := i
		eng.At(time.Duration(i)*time.Millisecond, func() {
			med.Transmit(0, frame(0, message.BroadcastID))
		})
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 10 { // 5 frames × 2 receivers
		t.Errorf("delivered = %d, want 10", count)
	}
	if rec.Collisions() != 0 {
		t.Errorf("collisions = %d, want 0", rec.Collisions())
	}
}

func TestBusyAndTransmitting(t *testing.T) {
	eng, _, _, med := testSetup(t, 3, 7, DefaultConfig())
	med.Transmit(0, frame(0, message.BroadcastID))
	if !med.Busy(1) {
		t.Error("neighbor should sense carrier during transmission")
	}
	if !med.Transmitting(0) {
		t.Error("sender should be Transmitting")
	}
	if med.Transmitting(1) {
		t.Error("idle node is not Transmitting")
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if med.Busy(1) || med.Transmitting(0) {
		t.Error("medium should be idle after the frame ends")
	}
}

func TestTransmitInvalidFrame(t *testing.T) {
	_, _, _, med := testSetup(t, 2, 8, DefaultConfig())
	bad := &message.Message{Kind: 0}
	if _, err := med.Transmit(0, bad); err == nil {
		t.Error("invalid frame should be rejected")
	}
}

func TestNoHandlerNoCrash(t *testing.T) {
	eng, _, rec, med := testSetup(t, 3, 9, DefaultConfig())
	med.Transmit(0, frame(0, message.BroadcastID))
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if rec.TotalRxMessages() != 0 {
		t.Error("no handlers installed: nothing should be recorded as received")
	}
}

func TestLateCollisionStillDetected(t *testing.T) {
	// Regression for the pruning rule: a short frame overlapping the tail of
	// a long frame must corrupt it even though other transmissions happen
	// in between and trigger pruning.
	eng, _, _, med := testSetup(t, 5, 10, DefaultConfig())
	delivered := make(map[topo.NodeID]int)
	med.SetHandler(func(at topo.NodeID, _ int, msg *message.Message) {
		delivered[at]++
	})
	long := message.Build(message.KindReading, 0, message.BroadcastID, 1, make([]byte, 500))
	med.Transmit(0, long) // airtime ≈ 4.1 ms
	eng.After(4*time.Millisecond, func() {
		med.Transmit(1, frame(1, message.BroadcastID)) // overlaps the tail
	})
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// The long frame must be lost at nodes 2,3,4 (collision), and node 1
	// was transmitting during its tail.
	for _, id := range []topo.NodeID{1, 2, 3, 4} {
		if delivered[id] > 1 {
			t.Errorf("node %d received %d frames; long frame should collide", id, delivered[id])
		}
	}
}

func TestFadingValidation(t *testing.T) {
	eng := sim.NewEngine()
	net := lineNetwork(t, 3)
	bad := Config{BitrateBps: 1e6, Fading: true, EdgeLoss: 1.5, FadingBeta: 3}
	if _, err := NewMedium(eng, net, nil, bad); err == nil {
		t.Error("edge loss > 1 should be rejected")
	}
	bad = Config{BitrateBps: 1e6, Fading: true, EdgeLoss: 0.2, FadingBeta: 0}
	if _, err := NewMedium(eng, net, nil, bad); err == nil {
		t.Error("zero beta should be rejected")
	}
	if _, err := NewMedium(eng, net, nil, FadingConfig()); err != nil {
		t.Errorf("FadingConfig rejected: %v", err)
	}
}

func TestFadingLosesEdgeFramesMore(t *testing.T) {
	// Build a network where node 0 has one close neighbour and one edge
	// neighbour, and compare delivery rates over many frames.
	net, err := topo.NewNetwork(topo.Config{
		Field:        geom.Field{Width: 100, Height: 100},
		Range:        49,
		Nodes:        60,
		Seed:         3,
		BaseAtCenter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	med, err := NewMedium(eng, net, nil, FadingConfig())
	if err != nil {
		t.Fatal(err)
	}
	med.SetFadingSource(rand.New(rand.NewSource(1)))
	// Find a close and a far neighbour of node 0.
	var near, far topo.NodeID = -1, -1
	p0 := net.Position(0)
	for _, nb := range net.Neighbors(0) {
		d := p0.Dist(net.Position(nb))
		if d < 0.3*net.Range() && near < 0 {
			near = nb
		}
		if d > 0.9*net.Range() && far < 0 {
			far = nb
		}
	}
	if near < 0 || far < 0 {
		t.Skip("topology lacks near/far pair")
	}
	counts := map[topo.NodeID]int{}
	med.SetHandler(func(at topo.NodeID, _ int, m *message.Message) {
		if at == near || at == far {
			counts[at]++
		}
	})
	const frames = 400
	for i := 0; i < frames; i++ {
		i := i
		eng.After(time.Duration(i)*time.Millisecond, func() {
			med.Transmit(0, frame(0, message.BroadcastID))
		})
		_ = i
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if counts[near] <= counts[far] {
		t.Errorf("near neighbour received %d <= far %d; fading should penalise the edge",
			counts[near], counts[far])
	}
	if counts[far] < frames/4 {
		t.Errorf("far neighbour received only %d of %d; edge loss too aggressive", counts[far], frames)
	}
	t.Logf("near=%d far=%d of %d", counts[near], counts[far], frames)
}

func TestLossInjectionValidation(t *testing.T) {
	eng := sim.NewEngine()
	net := lineNetwork(t, 3)
	if _, err := NewMedium(eng, net, nil, Config{BitrateBps: 1e6, LossRate: 1}); err == nil {
		t.Error("loss rate 1 should be rejected")
	}
	if _, err := NewMedium(eng, net, nil, Config{BitrateBps: 1e6, LossRate: -0.1}); err == nil {
		t.Error("negative loss rate should be rejected")
	}
	bad := Config{BitrateBps: 1e6, LossByKind: map[string]float64{"assembled": 1.5}}
	if _, err := NewMedium(eng, net, nil, bad); err == nil {
		t.Error("per-kind loss rate above 1 should be rejected")
	}
}

func TestLossInjectionDropsExpectedFraction(t *testing.T) {
	eng, _, rec, med := testSetup(t, 2, 1, Config{BitrateBps: 1e6, LossRate: 0.5})
	med.SetFadingSource(rand.New(rand.NewSource(7)))
	got := 0
	med.SetHandler(func(at topo.NodeID, _ int, m *message.Message) { got++ })
	const frames = 600
	for i := 0; i < frames; i++ {
		at := time.Duration(i) * time.Millisecond
		eng.After(at, func() { med.Transmit(0, frame(0, 1)) })
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if got < frames/2-80 || got > frames/2+80 {
		t.Errorf("delivered %d of %d at 50%% injected loss", got, frames)
	}
	if rec.Dropped() != frames-got {
		t.Errorf("Dropped = %d, want %d", rec.Dropped(), frames-got)
	}
}

func TestLossByKindOverridesUniformRate(t *testing.T) {
	// The per-kind entry wins over the uniform rate, in both directions: an
	// exempted kind always lands, and a targeted kind is starved even when
	// the uniform rate is zero.
	cfg := Config{BitrateBps: 1e6, LossRate: 0.9, LossByKind: map[string]float64{"reading": 0}}
	eng, _, _, med := testSetup(t, 2, 1, cfg)
	med.SetFadingSource(rand.New(rand.NewSource(7)))
	got := 0
	med.SetHandler(func(at topo.NodeID, _ int, m *message.Message) { got++ })
	const frames = 50
	for i := 0; i < frames; i++ {
		at := time.Duration(i) * time.Millisecond
		eng.After(at, func() { med.Transmit(0, frame(0, 1)) })
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != frames {
		t.Errorf("exempted kind delivered %d of %d", got, frames)
	}
	cfg = Config{BitrateBps: 1e6, LossByKind: map[string]float64{"reading": 0.99}}
	eng2, _, _, med2 := testSetup(t, 2, 1, cfg)
	med2.SetFadingSource(rand.New(rand.NewSource(7)))
	got2 := 0
	med2.SetHandler(func(at topo.NodeID, _ int, m *message.Message) { got2++ })
	for i := 0; i < frames; i++ {
		at := time.Duration(i) * time.Millisecond
		eng2.After(at, func() { med2.Transmit(0, frame(0, 1)) })
	}
	if err := eng2.Run(0); err != nil {
		t.Fatal(err)
	}
	if got2 > frames/4 {
		t.Errorf("targeted kind delivered %d of %d at 99%% loss", got2, frames)
	}
}

// TestHandlerGetsTransmitterLink pins the link argument: a frame from s
// reaches its i-th neighbour over link Link(s, i), whatever the frame
// claims as its sender.
func TestHandlerGetsTransmitterLink(t *testing.T) {
	eng, net, _, med := testSetup(t, 5, 2, Config{BitrateBps: 1e6, Ideal: true})
	got := make(map[topo.NodeID]int)
	med.SetHandler(func(at topo.NodeID, link int, msg *message.Message) { got[at] = link })
	// Node 2 transmits a frame claiming to come from node 0.
	if _, err := med.Transmit(2, frame(0, message.BroadcastID)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	nbrs := net.Neighbors(2)
	if len(got) != len(nbrs) {
		t.Fatalf("delivered to %d nodes, want %d", len(got), len(nbrs))
	}
	for i, rcv := range nbrs {
		if got[rcv] != net.Link(2, i) {
			t.Errorf("node %d got link %d, want Link(2, %d) = %d", rcv, got[rcv], i, net.Link(2, i))
		}
	}
}

// TestAckReachesOnlyAddressee pins the ACK rule: every receiver in range
// hears an ACK — it is counted in the recorder's rx bytes and messages, and
// it collides like any frame — but only the addressee's handler is called.
func TestAckReachesOnlyAddressee(t *testing.T) {
	eng, net, rec, med := testSetup(t, 5, 2, DefaultConfig())
	handled := make(map[topo.NodeID]int)
	med.SetHandler(func(at topo.NodeID, _ int, msg *message.Message) {
		if msg.Kind != message.KindAck {
			t.Fatalf("node %d handled a %s", at, msg.Kind)
		}
		handled[at]++
	})
	// An ACK alone on the air: heard by all four other nodes.
	heard := net.Neighbors(0) // fully connected: everyone but the sender
	wire := (&message.Message{Kind: message.KindAck}).WireSize()
	med.TransmitAck(0, 1, 1, 1)
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(handled) != 1 || handled[1] != 1 {
		t.Fatalf("handlers called %v, want only the addressee 1", handled)
	}
	for _, id := range heard {
		if rec.NodeRxMessages(id) != 1 || rec.NodeRxBytes(id) != wire {
			t.Errorf("node %d: rx %d msgs / %d B, want 1 / %d", id, rec.NodeRxMessages(id), rec.NodeRxBytes(id), wire)
		}
	}
	if rec.Collisions() != 0 {
		t.Fatalf("collisions = %d on a lone ACK", rec.Collisions())
	}
	// Two ACKs on the air together: every reception of either collides,
	// bystanders' included, and no handler runs.
	clear(handled)
	eng.After(time.Millisecond, func() {
		med.TransmitAck(0, 1, 1, 2)
		med.TransmitAck(2, 3, 1, 3)
	})
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(handled) != 0 {
		t.Errorf("handlers called %v during a collision", handled)
	}
	if want := net.Degree(0) + net.Degree(2); rec.Collisions() != want {
		t.Errorf("collisions = %d, want %d (one per receiver of each ACK)", rec.Collisions(), want)
	}
}
