package mac

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
)

func setup(t testing.TB, nodes int, seed int64) (*sim.Engine, *topo.Network, *metrics.Recorder, *radio.Medium, *Layer) {
	t.Helper()
	net, err := topo.NewNetwork(topo.Config{
		Field:        geom.Field{Width: 100, Height: 100},
		Range:        200, // fully connected
		Nodes:        nodes,
		Seed:         seed,
		BaseAtCenter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	rec := metrics.NewRecorder()
	med, err := radio.NewMedium(eng, net, rec, radio.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	layer, err := NewLayer(eng, med, nodes, rand.New(rand.NewSource(seed)), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng, net, rec, med, layer
}

func broadcast(from topo.NodeID) *message.Message {
	return message.Build(message.KindReading, from, message.BroadcastID, 1,
		message.MarshalValue(message.Value{V: 1}))
}

func unicast(from, to topo.NodeID) *message.Message {
	return message.Build(message.KindReading, from, to, 1,
		message.MarshalValue(message.Value{V: 2}))
}

func TestNewLayerValidation(t *testing.T) {
	eng := sim.NewEngine()
	good := DefaultConfig()
	mutations := []func(*Config){
		func(c *Config) { c.Slot = 0 },
		func(c *Config) { c.SIFS = -1 },
		func(c *Config) { c.MinCW = 0 },
		func(c *Config) { c.MaxCW = 1 },
		func(c *Config) { c.MaxCSRetries = 0 },
		func(c *Config) { c.MaxTxRetries = -1 },
		func(c *Config) { c.AckTimeout = 0 },
	}
	for i, mut := range mutations {
		cfg := good
		mut(&cfg)
		if _, err := NewLayer(eng, nil, 2, rand.New(rand.NewSource(1)), cfg); err == nil {
			t.Errorf("mutation %d should be rejected", i)
		}
	}
}

func TestBroadcastDelivers(t *testing.T) {
	eng, net, _, _, layer := setup(t, 5, 1)
	got := 0
	for i := 0; i < net.Size(); i++ {
		layer.SetReceiver(topo.NodeID(i), func(at topo.NodeID, m *message.Message) { got++ })
	}
	layer.Send(broadcast(0))
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("delivered = %d, want 4", got)
	}
	if layer.QueueLen(0) != 0 {
		t.Errorf("queue not drained: %d", layer.QueueLen(0))
	}
	if layer.AcksSent() != 0 {
		t.Error("broadcasts must not be ACKed")
	}
}

func TestUnicastAcked(t *testing.T) {
	eng, _, _, _, layer := setup(t, 3, 2)
	var got *message.Message
	layer.SetReceiver(1, func(at topo.NodeID, m *message.Message) {
		if m.To == 1 {
			got = m
		}
	})
	layer.Send(unicast(0, 1))
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("unicast not delivered")
	}
	if layer.AcksSent() != 1 {
		t.Errorf("acks = %d, want 1", layer.AcksSent())
	}
	if layer.Retransmissions() != 0 {
		t.Errorf("retx = %d, want 0", layer.Retransmissions())
	}
	if layer.QueueLen(0) != 0 {
		t.Error("sender still busy after ACK")
	}
}

func TestUnicastOverheardByThirdParty(t *testing.T) {
	eng, _, _, _, layer := setup(t, 3, 3)
	overheard := false
	layer.SetReceiver(2, func(at topo.NodeID, m *message.Message) {
		if m.Kind == message.KindReading && m.To == 1 {
			overheard = true
		}
	})
	layer.Send(unicast(0, 1))
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if !overheard {
		t.Error("third party must overhear the unicast (promiscuous mode)")
	}
}

func TestAcksInvisibleToProtocol(t *testing.T) {
	eng, _, _, _, layer := setup(t, 3, 4)
	sawAck := false
	for i := 0; i < 3; i++ {
		layer.SetReceiver(topo.NodeID(i), func(at topo.NodeID, m *message.Message) {
			if m.Kind == message.KindAck {
				sawAck = true
			}
		})
	}
	layer.Send(unicast(0, 1))
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if sawAck {
		t.Error("ACK frames must be absorbed by the MAC")
	}
}

func TestUnicastToUnreachableDropsAfterRetries(t *testing.T) {
	// Node 99 does not exist in range: build a sparse two-island network by
	// using a tiny range.
	net, err := topo.NewNetwork(topo.Config{
		Field: geom.Field{Width: 1000, Height: 1000},
		Range: 30,
		Nodes: 4,
		Seed:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	med, err := radio.NewMedium(eng, net, nil, radio.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	layer, err := NewLayer(eng, med, 4, rand.New(rand.NewSource(5)), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Find an unreachable pair.
	var from, to topo.NodeID = -1, -1
	for a := 0; a < 4 && from < 0; a++ {
		for b := 0; b < 4; b++ {
			if a != b && !net.InRange(topo.NodeID(a), topo.NodeID(b)) {
				from, to = topo.NodeID(a), topo.NodeID(b)
				break
			}
		}
	}
	if from < 0 {
		t.Skip("all nodes in range; seed-dependent")
	}
	layer.Send(unicast(from, to))
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if layer.Drops() != 1 {
		t.Errorf("drops = %d, want 1", layer.Drops())
	}
	if layer.Retransmissions() != DefaultConfig().MaxTxRetries {
		t.Errorf("retx = %d, want %d", layer.Retransmissions(), DefaultConfig().MaxTxRetries)
	}
	if layer.QueueLen(from) != 0 {
		t.Error("port stuck after ARQ exhaustion")
	}
}

func TestNoDuplicateDeliveryOnRetransmit(t *testing.T) {
	// Force an ACK loss by having the receiver's ACK collide: node 2
	// transmits a long broadcast right when the ACK would go out.
	// Simpler deterministic approach: send many unicasts under heavy
	// contention and assert the receiver never sees the same seq twice.
	eng, _, _, _, layer := setup(t, 10, 6)
	seen := make(map[topo.NodeID]map[uint16]int)
	for i := 0; i < 10; i++ {
		id := topo.NodeID(i)
		layer.SetReceiver(id, func(at topo.NodeID, m *message.Message) {
			if m.To != at {
				return
			}
			if seen[m.From] == nil {
				seen[m.From] = make(map[uint16]int)
			}
			seen[m.From][m.Seq]++
		})
	}
	for i := 0; i < 10; i++ {
		for j := 0; j < 3; j++ {
			to := topo.NodeID((i + 1 + j) % 10)
			layer.Send(unicast(topo.NodeID(i), to))
		}
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	for from, seqs := range seen {
		for seq, n := range seqs {
			if n > 1 {
				t.Errorf("frame from %d seq %d delivered %d times", from, seq, n)
			}
		}
	}
}

func TestCSMAAvoidsMostCollisions(t *testing.T) {
	eng, net, rec, _, layer := setup(t, 20, 7)
	delivered := 0
	for i := 0; i < net.Size(); i++ {
		layer.SetReceiver(topo.NodeID(i), func(at topo.NodeID, m *message.Message) { delivered++ })
	}
	for i := 0; i < net.Size(); i++ {
		layer.Send(broadcast(topo.NodeID(i)))
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	want := 20 * 19
	rate := float64(delivered) / float64(want)
	if rate < 0.85 {
		t.Errorf("delivery rate %.2f too low (delivered %d of %d, collisions %d)",
			rate, delivered, want, rec.Collisions())
	}
}

func TestFIFOOrderPerNode(t *testing.T) {
	eng, _, _, _, layer := setup(t, 2, 8)
	var got []uint16
	layer.SetReceiver(1, func(at topo.NodeID, m *message.Message) {
		got = append(got, m.Round)
	})
	for r := uint16(1); r <= 5; r++ {
		m := broadcast(0)
		m.Round = r
		layer.Send(m)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d frames: %v", len(got), got)
	}
	for i, r := range got {
		if r != uint16(i+1) {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestCarrierSenseExhaustionDrops(t *testing.T) {
	eng, _, _, med, layer := setup(t, 3, 9)
	stop := false
	var keepBusy func()
	keepBusy = func() {
		if stop {
			return
		}
		long := message.Build(message.KindReading, 1, message.BroadcastID, 1, make([]byte, 1000))
		dur, err := med.Transmit(1, long)
		if err != nil {
			t.Error(err)
			return
		}
		eng.After(dur, keepBusy)
	}
	keepBusy()
	eng.After(time.Millisecond, func() { layer.Send(broadcast(0)) })
	eng.After(20*time.Second, func() { stop = true })
	if err := eng.Run(21 * time.Second); err != nil {
		t.Fatal(err)
	}
	if layer.Drops() != 1 {
		t.Errorf("drops = %d, want 1", layer.Drops())
	}
	if layer.QueueLen(0) != 0 {
		t.Error("queue should be empty after drop")
	}
}

func TestInvalidFrameDroppedNotStuck(t *testing.T) {
	eng, _, _, _, layer := setup(t, 2, 10)
	bad := &message.Message{Kind: 0, From: 0, To: message.BroadcastID}
	layer.Send(bad)
	layer.Send(broadcast(0))
	delivered := 0
	layer.SetReceiver(1, func(at topo.NodeID, m *message.Message) { delivered++ })
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if layer.Drops() != 1 {
		t.Errorf("drops = %d, want 1", layer.Drops())
	}
	if delivered != 1 {
		t.Errorf("good frame not delivered after bad one (got %d)", delivered)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() []time.Duration {
		eng, net, _, _, layer := setup(t, 10, 42)
		var times []time.Duration
		for i := 0; i < net.Size(); i++ {
			layer.SetReceiver(topo.NodeID(i), func(at topo.NodeID, m *message.Message) {
				times = append(times, eng.Now())
			})
		}
		for i := 0; i < 10; i++ {
			layer.Send(broadcast(topo.NodeID(i)))
		}
		if err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %v vs %v", i, a[i], b[i])
		}
	}
}

func TestHeavyUnicastLoadAllDelivered(t *testing.T) {
	// ARQ should push unicast delivery to ~100% even under contention.
	eng, _, _, _, layer := setup(t, 15, 11)
	delivered := 0
	for i := 0; i < 15; i++ {
		id := topo.NodeID(i)
		layer.SetReceiver(id, func(at topo.NodeID, m *message.Message) {
			if m.To == at {
				delivered++
			}
		})
	}
	sent := 0
	for i := 0; i < 15; i++ {
		for j := 0; j < 4; j++ {
			layer.Send(unicast(topo.NodeID(i), topo.NodeID((i+1+j)%15)))
			sent++
		}
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if delivered < sent*98/100 {
		t.Errorf("delivered %d of %d unicasts", delivered, sent)
	}
}

func TestDisableSilencesNode(t *testing.T) {
	eng, _, _, _, layer := setup(t, 4, 12)
	received := 0
	layer.SetReceiver(1, func(at topo.NodeID, m *message.Message) { received++ })
	layer.SetReceiver(2, func(at topo.NodeID, m *message.Message) { received++ })

	layer.Disable(3)
	if !layer.Disabled(3) {
		t.Fatal("Disabled not reported")
	}
	// A dead node neither sends...
	layer.Send(broadcast(3))
	// ...nor receives.
	deadGot := 0
	layer.SetReceiver(3, func(at topo.NodeID, m *message.Message) { deadGot++ })
	layer.Send(broadcast(0))
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if received != 2 {
		t.Errorf("live nodes received %d frames, want 2", received)
	}
	if deadGot != 0 {
		t.Error("dead node received a frame")
	}
	if layer.Drops() == 0 {
		t.Error("dead node's send should count as dropped")
	}
}

func TestDisableMidARQ(t *testing.T) {
	eng, _, _, _, layer := setup(t, 3, 13)
	// Node 0 sends a unicast to node 1; node 1 dies before it can ACK...
	// actually Disable is immediate, so kill node 1 first: the sender must
	// exhaust retries and drop, not hang.
	layer.Disable(1)
	layer.Send(unicast(0, 1))
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if layer.QueueLen(0) != 0 {
		t.Error("sender stuck after peer death")
	}
}

func TestEnableRevivesNode(t *testing.T) {
	eng, _, _, _, layer := setup(t, 4, 14)
	received := 0
	layer.SetReceiver(1, func(at topo.NodeID, m *message.Message) {
		if m.From == 3 {
			received++
		}
	})

	layer.Disable(3)
	layer.Send(broadcast(3)) // dropped: dead nodes cannot send
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if received != 0 {
		t.Fatal("dead node's frame was delivered")
	}

	layer.Enable(3)
	if layer.Disabled(3) {
		t.Fatal("Enable left the node reported dead")
	}
	// A rebooted node both sends...
	layer.Send(broadcast(3))
	// ...and receives again.
	revivedGot := 0
	layer.SetReceiver(3, func(at topo.NodeID, m *message.Message) { revivedGot++ })
	layer.Send(broadcast(0))
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if received != 1 {
		t.Errorf("live node received %d frames from the rebooted sender, want 1", received)
	}
	if revivedGot == 0 {
		t.Error("rebooted node received nothing")
	}
}
