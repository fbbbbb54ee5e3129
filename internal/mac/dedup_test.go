package mac

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/message"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestDedupMatchesReferenceTable is the link-indexed duplicate filter's
// reference twin. Random frames go on an ideal channel through Inject, from
// random transmitters, under claimed senders that are the transmitter, a
// node in range of some receivers, a node out of range of them, or a
// phantom ID outside the network; sequence numbers come from a small range
// so repeats are common, and the layer is Reset now and then. Every
// accept/drop decision must match the naive rule "drop iff the last seq
// accepted at this receiver from this claimed sender equals this seq".
func TestDedupMatchesReferenceTable(t *testing.T) {
	const nodes = 40
	net, err := topo.NewNetwork(topo.Config{
		Field: geom.Field{Width: 150, Height: 150}, Range: 50, Nodes: nodes, Seed: 21,
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
	layer, err := NewLayer(eng, med, nodes, rand.New(rand.NewSource(21)), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	type delivery struct {
		at, from topo.NodeID
		seq      uint16
	}
	var got []delivery
	install := func() {
		for id := 0; id < nodes; id++ {
			layer.SetReceiver(topo.NodeID(id), func(at topo.NodeID, m *message.Message) {
				got = append(got, delivery{at, m.From, m.Seq})
			})
		}
	}
	install()

	ref := make(map[[2]topo.NodeID]uint16)
	rng := rand.New(rand.NewSource(22))
	var (
		checked int
		drops   = map[string]int{} // duplicate drops by claimed-sender class
		resets  int
	)
	for step := 0; step < 20_000; step++ {
		if rng.Intn(1000) == 0 {
			layer.Reset()
			install()
			clear(ref)
			resets++
		}
		tx := topo.NodeID(rng.Intn(nodes))
		from := tx
		switch r := rng.Intn(10); {
		case r == 0:
			from = nodes + topo.NodeID(rng.Intn(3)) // Sybil phantom past the last node
		case r == 1:
			from = -2 - topo.NodeID(rng.Intn(3)) // phantom below zero
		case r < 4:
			from = topo.NodeID(rng.Intn(nodes)) // spoofed real node, adjacent or not
		}
		to := message.BroadcastID
		if rng.Intn(4) == 0 {
			to = topo.NodeID(rng.Intn(nodes))
		}
		msg := message.Build(message.KindReading, from, to, 1, message.MarshalValue(message.Value{V: 3}))
		msg.Seq = uint16(rng.Intn(3))

		var want []delivery
		for _, rcv := range net.Neighbors(tx) {
			key := [2]topo.NodeID{rcv, from}
			if last, ok := ref[key]; ok && last == msg.Seq {
				switch {
				case from == tx:
					drops["transmitter"]++
				case from < 0 || from >= nodes:
					drops["phantom"]++
				case net.InRange(from, rcv):
					drops["spoofed-adjacent"]++
				default:
					drops["spoofed-non-adjacent"]++
				}
				continue
			}
			ref[key] = msg.Seq
			want = append(want, delivery{rcv, from, msg.Seq})
		}

		got = got[:0]
		if err := layer.Inject(tx, msg); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("step %d (tx %d, from %d, seq %d): delivered %v, reference %v", step, tx, from, msg.Seq, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d (tx %d, from %d, seq %d): delivered %v, reference %v", step, tx, from, msg.Seq, got, want)
			}
		}
		checked += len(net.Neighbors(tx))
	}
	for _, class := range []string{"transmitter", "phantom", "spoofed-adjacent", "spoofed-non-adjacent"} {
		if drops[class] == 0 {
			t.Errorf("no duplicate from a %s claimed sender was exercised", class)
		}
	}
	if resets == 0 {
		t.Error("no mid-sequence Reset was exercised")
	}
	t.Logf("%d decisions, duplicate drops %v, %d resets", checked, drops, resets)
}

// BenchmarkMACBroadcastReceive times one broadcast through a warm MAC and
// its delivery — radio reception, dedup, protocol hand-off — to every
// neighbour of the sender, in a cell of ~20 (the reference density) and
// ~60 neighbours. ns/rx divides the time by the receptions.
func BenchmarkMACBroadcastReceive(b *testing.B) {
	for _, degree := range []float64{20, 60} {
		b.Run(fmt.Sprintf("degree=%.0f", degree), func(b *testing.B) {
			const nodes, rng = 400, 50.0
			side := math.Sqrt(float64(nodes-1) * math.Pi * rng * rng / degree)
			net, err := topo.NewNetwork(topo.Config{
				Field: geom.Field{Width: side, Height: side}, Range: rng, Nodes: nodes, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			eng := sim.NewEngine()
			med, err := radio.NewMedium(eng, net, nil, radio.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			layer, err := NewLayer(eng, med, nodes, rand.New(rand.NewSource(1)), DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			from := topo.NodeID(1)
			for id := 0; id < nodes; id++ {
				if math.Abs(float64(net.Degree(topo.NodeID(id)))-degree) < math.Abs(float64(net.Degree(from))-degree) {
					from = topo.NodeID(id)
				}
			}
			received := 0
			for id := 0; id < nodes; id++ {
				layer.SetReceiver(topo.NodeID(id), func(topo.NodeID, *message.Message) { received++ })
			}
			frame := broadcast(from)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layer.Send(frame)
				if err := eng.Run(0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if received == 0 {
				b.Fatal("no receptions")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(received), "ns/rx")
			b.ReportMetric(float64(received)/float64(b.N), "rx/op")
		})
	}
}
