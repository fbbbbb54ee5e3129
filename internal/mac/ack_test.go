package mac

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/message"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestAcksDueTogetherBothSent covers a receiver that owes two ACKs within
// one SIFS. On an ideal channel two frames can reach one node at the same
// instant, so both ACKs fall due together; both must go on the air, in the
// order their frames arrived, each naming its own frame.
func TestAcksDueTogetherBothSent(t *testing.T) {
	net, err := topo.NewNetwork(topo.Config{
		Field: geom.Field{Width: 100, Height: 100}, Range: 200, Nodes: 4, Seed: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	rcfg := radio.DefaultConfig()
	rcfg.Ideal = true
	med, err := radio.NewMedium(eng, net, nil, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	layer, err := NewLayer(eng, med, 4, rand.New(rand.NewSource(16)), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Node 3 is a bystander that logs every ACK it overhears.
	var acks []message.Message
	med.SetHandler(3, func(at topo.NodeID, m *message.Message) {
		if m.Kind == message.KindAck {
			acks = append(acks, *m)
		}
		layer.onReceive(at, m)
	})
	// Inject skips carrier sense, so both frames share the air and end at
	// the same instant.
	a, b := unicast(0, 1), unicast(2, 1)
	a.Round, a.Seq = 5, 7
	b.Round, b.Seq = 6, 9
	for _, m := range []*message.Message{a, b} {
		if err := layer.Inject(m.From, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []message.Message{
		{Kind: message.KindAck, From: 1, To: 0, Round: 5, Seq: 7},
		{Kind: message.KindAck, From: 1, To: 2, Round: 6, Seq: 9},
	}
	if len(acks) != len(want) {
		t.Fatalf("overheard %d ACKs, want %d: %+v", len(acks), len(want), acks)
	}
	for i := range want {
		if acks[i].Kind != want[i].Kind || acks[i].From != want[i].From || acks[i].To != want[i].To ||
			acks[i].Round != want[i].Round || acks[i].Seq != want[i].Seq {
			t.Errorf("ACK %d = %+v, want %+v", i, acks[i], want[i])
		}
	}
	if layer.AcksSent() != 2 {
		t.Errorf("acks = %d, want 2", layer.AcksSent())
	}
}

// TestWarmUnicastExchangeAllocatesNothing gates the MAC's steady state: once
// the transmission pool, dedup table, transmit queue and ACK FIFO are warm,
// queueing a caller's frame, sending it, delivering it and ACKing it
// allocates nothing.
func TestWarmUnicastExchangeAllocatesNothing(t *testing.T) {
	eng, _, _, _, layer := setup(t, 3, 15)
	frame := unicast(0, 1)
	exchange := func() {
		layer.Send(frame)
		if err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	exchange()
	if n := testing.AllocsPerRun(100, exchange); n != 0 {
		t.Errorf("warm unicast + ACK: %v allocs, want 0", n)
	}
	if layer.AcksSent() != 102 || layer.Retransmissions() != 0 || layer.QueueLen(0) != 0 {
		t.Errorf("acks %d, retx %d, queue %d after 102 exchanges",
			layer.AcksSent(), layer.Retransmissions(), layer.QueueLen(0))
	}
}

// TestQueueReusesBackingArray pins the transmit queue's rewind: a port that
// repeatedly fills and drains its queue keeps one backing array.
func TestQueueReusesBackingArray(t *testing.T) {
	eng, _, _, _, layer := setup(t, 2, 17)
	burst := func() {
		for i := 0; i < 4; i++ {
			layer.Send(broadcast(0))
		}
		if err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	p := &layer.ports[0]
	if p.queued() != 0 || p.qhead != 0 || cap(p.queue) < 4 {
		t.Fatalf("drained queue: len %d, head %d, cap %d", len(p.queue), p.qhead, cap(p.queue))
	}
	backing := &p.queue[:1][0]
	burst()
	if &p.queue[:1][0] != backing {
		t.Error("second burst reallocated the queue")
	}
}

// BenchmarkMACUnicast times one acknowledged unicast through a warm MAC:
// backoff, carrier sense, the frame, its delivery to the 20 nodes in range,
// and the ACK.
func BenchmarkMACUnicast(b *testing.B) {
	eng, _, _, _, layer := setup(b, 21, 18)
	frame := unicast(0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		layer.Send(frame)
		if err := eng.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}
