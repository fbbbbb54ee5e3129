package radio

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topo"
)

// cellMedium builds a 400-node deployment on a field sized for the given
// mean degree and returns its medium, with a handler counting deliveries,
// and the node whose degree is closest to it.
func cellMedium(tb testing.TB, degree float64, delivered *int) (*sim.Engine, *Medium, topo.NodeID) {
	tb.Helper()
	const nodes, rng = 400, 50.0
	side := math.Sqrt(float64(nodes-1) * math.Pi * rng * rng / degree)
	net, err := topo.NewNetwork(topo.Config{
		Field: geom.Field{Width: side, Height: side}, Range: rng, Nodes: nodes, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	eng := sim.NewEngine()
	med, err := NewMedium(eng, net, metrics.NewRecorder(), DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	med.SetHandler(func(topo.NodeID, int, *message.Message) { *delivered++ })
	best := topo.NodeID(1)
	for id := 0; id < nodes; id++ {
		if math.Abs(float64(net.Degree(topo.NodeID(id)))-degree) < math.Abs(float64(net.Degree(best))-degree) {
			best = topo.NodeID(id)
		}
	}
	return eng, med, best
}

// BenchmarkRadioDeliver times one frame on the air and its delivery to
// every neighbour of the sender: a broadcast in a dense (~60 neighbours)
// and a sparse (~8) cell, and an ACK among ~20 neighbours, which reaches
// its addressee's handler while every bystander's reception is still
// decided and charged. rx/op reports the handler calls per frame.
func BenchmarkRadioDeliver(b *testing.B) {
	for _, c := range []struct {
		name   string
		degree float64
		ack    bool
	}{{"dense", 60, false}, {"sparse", 8, false}, {"ack", 20, true}} {
		b.Run(c.name, func(b *testing.B) {
			delivered := 0
			eng, med, from := cellMedium(b, c.degree, &delivered)
			msg := frame(from, message.BroadcastID)
			to := med.net.Neighbors(from)[0]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.ack {
					med.TransmitAck(from, to, 1, uint16(i))
				} else if _, err := med.Transmit(from, msg); err != nil {
					b.Fatal(err)
				}
				if err := eng.Run(0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(delivered)/float64(b.N), "rx/op")
		})
	}
}

// TestTransmitAckAllocatesNothing gates the medium's ACK path: once the
// transmission pool is warm, an ACK goes on the air and reaches every
// neighbour without allocating, and its addressee sees the frame it
// describes.
func TestTransmitAckAllocatesNothing(t *testing.T) {
	delivered := 0
	eng, med, from := cellMedium(t, 20, &delivered)
	to := med.net.Neighbors(from)[0]
	var got message.Message
	med.SetHandler(func(_ topo.NodeID, _ int, m *message.Message) { got = *m })
	ack := func() {
		med.TransmitAck(from, to, 3, 4)
		if err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	ack()
	if got.Kind != message.KindAck || got.From != from || got.To != to || got.Round != 3 || got.Seq != 4 {
		t.Fatalf("receiver saw %+v", got)
	}
	if n := testing.AllocsPerRun(100, ack); n != 0 {
		t.Errorf("warm ACK: %v allocs, want 0", n)
	}
}
