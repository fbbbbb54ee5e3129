package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/field"
	"repro/internal/message"
	"repro/internal/shares"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/wsn"
	"repro/internal/wsncrypto"
)

// micro is one timed call into a layer's public API. op performs per
// calls; the metric is nanoseconds per call.
type micro struct {
	name string
	per  int
	op   func()
}

// sinkLen keeps the timed calls' results live.
var sinkLen int

// microRows times each substrate call for an equal share of budget and
// adds one metric per call, then prints each next to the per-round count
// it multiplies.
func microRows(rep *report, seed int64, budget time.Duration) error {
	ms, err := micros(seed)
	if err != nil {
		return err
	}
	for _, m := range ms {
		ns, n := timeOp(budget/time.Duration(len(ms)), m)
		rep.add(m.name, ns, "ns", n)
	}
	for _, p := range [][2]string{
		{"sim.event_ns", "sim.events_per_round"},
		{"radio.transmit_ns_sparse", "radio.frames_per_round"},
		{"radio.transmit_ns_dense", "radio.frames_per_round"},
		{"mac.unicast_ns", "mac.acks_per_round"},
		{"wsncrypto.seal_ns_w1", "wsncrypto.sealed_frames_per_round"},
		{"wsncrypto.open_ns_w1", "wsncrypto.sealed_frames_per_round"},
	} {
		ns, count := rep.value(p[0]), rep.value(p[1])
		rep.notef("%s %.0f × %s %.0f = %.1f ms per round", p[0], ns, p[1], count, ns*count/1e6)
	}
	return nil
}

// timeOp runs m in batches sized to a fiftieth of budget until budget is
// spent (five batches at least) and returns the median nanoseconds per
// call with the number of batches.
func timeOp(budget time.Duration, m micro) (float64, int) {
	batch := 1
	for {
		t := time.Now()
		for i := 0; i < batch; i++ {
			m.op()
		}
		if time.Since(t) >= budget/50 || batch >= 1<<20 {
			break
		}
		batch *= 2
	}
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < budget {
		t := time.Now()
		for i := 0; i < batch; i++ {
			m.op()
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(batch*m.per))
	}
	return median(per), len(per)
}

// micros builds every timed call, with inputs drawn from seed.
func micros(seed int64) ([]micro, error) {
	rng := rand.New(rand.NewSource(seed))
	elems := func(n int) []field.Element {
		out := make([]field.Element, n)
		for i := range out {
			out[i] = field.New(rng.Uint64())
		}
		return out
	}
	w1, w16 := elems(1), elems(16)
	pt1, err := message.MarshalValues(w1)
	if err != nil {
		return nil, err
	}
	pt16, err := message.MarshalValues(w16)
	if err != nil {
		return nil, err
	}
	key := make([]byte, 32)
	rng.Read(key)
	sealer, err := wsncrypto.NewSealer(key)
	if err != nil {
		return nil, err
	}
	env1, env16 := sealer.Seal(pt1), sealer.Seal(pt16)

	var out []micro

	// The event loop: schedule a burst of events at scattered times, drain.
	eng := sim.NewEngine()
	delays := make([]time.Duration, 256)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(1000)) * time.Microsecond
	}
	noop := func() {}
	out = append(out, micro{"sim.event_ns", len(delays), func() {
		for _, d := range delays {
			eng.After(d, noop)
		}
		_ = eng.Run(0) // drains a queue of no-ops; cannot fail below the event limit
	}})

	// One broadcast frame on the air and its delivery to every neighbour,
	// in a dense and in a sparse cell.
	for _, c := range []struct {
		name   string
		degree float64
	}{{"radio.transmit_ns_dense", 60}, {"radio.transmit_ns_sparse", 8}} {
		env, from, err := cellEnv(seed, c.degree)
		if err != nil {
			return nil, err
		}
		msg := message.Build(message.KindAssembled, from, message.BroadcastID, 1, pt1)
		if _, err := env.Medium.Transmit(from, msg); err != nil {
			return nil, err
		}
		if err := env.Eng.Run(0); err != nil {
			return nil, err
		}
		out = append(out, micro{c.name, 1, func() {
			// A fresh sequence number each time, so receivers do not drop
			// the frame as a duplicate; the frame was validated above.
			msg.Seq++
			_, _ = env.Medium.Transmit(from, msg)
			_ = env.Eng.Run(0)
		}})
	}

	// One acknowledged unicast through the MAC: carrier sense, backoff,
	// the frame, its delivery, the ACK.
	env, from, err := cellEnv(seed, 20)
	if err != nil {
		return nil, err
	}
	to := env.Net.Neighbors(from)[0]
	share := sealer.Seal(pt1)
	out = append(out, micro{"mac.unicast_ns", 1, func() {
		env.MAC.Send(message.Build(message.KindShare, from, to, 1, share))
		_ = env.Eng.Run(0) // the MAC's own events; cannot fail below the event limit
	}})

	out = append(out,
		micro{"wsncrypto.seal_ns_w1", 1, func() { sinkLen += len(sealer.Seal(pt1)) }},
		micro{"wsncrypto.seal_ns_w16", 1, func() { sinkLen += len(sealer.Seal(pt16)) }},
		micro{"wsncrypto.open_ns_w1", 1, func() {
			pt, _ := sealer.Open(env1) // a valid envelope; checked by the seal/open tests
			sinkLen += len(pt)
		}},
		micro{"wsncrypto.open_ns_w16", 1, func() {
			pt, _ := sealer.Open(env16)
			sinkLen += len(pt)
		}},
	)

	frame := message.Build(message.KindShare, 1, 2, 1, env1)
	ann := message.Announce{Origin: 5, ClusterSums: elems(1), ClusterCnt: 5, Mask: message.FullMask(5),
		Components: 1, FMatrix: elems(5)}
	for c := 0; c < 3; c++ {
		ann.Children = append(ann.Children, message.ChildEntry{Child: topo.NodeID(10 + c), Totals: elems(1), Count: 6})
	}
	if _, err := message.MarshalAnnounce(ann); err != nil {
		return nil, err
	}
	out = append(out,
		micro{"message.frame_rt_ns", 1, func() {
			b, _ := frame.Marshal() // a valid frame; errors only on invalid kinds
			m, _ := message.Unmarshal(b)
			sinkLen += len(m.Payload)
		}},
		micro{"message.values_rt_ns_w16", 1, func() {
			b, _ := message.MarshalValues(w16)
			v, _ := message.UnmarshalValues(b)
			sinkLen += len(v)
		}},
		micro{"message.announce_rt_ns", 1, func() {
			b, _ := message.MarshalAnnounce(ann) // validated above
			a, _ := message.UnmarshalAnnounce(b)
			sinkLen += len(a.Children)
		}},
	)

	seeds := make([]field.Element, 5)
	for i := range seeds {
		seeds[i] = shares.SeedFor(i)
	}
	alg, err := shares.NewAlgebra(seeds)
	if err != nil {
		return nil, err
	}
	var sh shares.Shares
	private := w1[0]
	solver, err := field.NewBatchSolver(seeds)
	if err != nil {
		return nil, err
	}
	rhs, dst := elems(5*16), make([]field.Element, 16)
	out = append(out,
		micro{"shares.generate_ns_m5", 1, func() { alg.GenerateInto(rng, private, &sh) }},
		micro{"field.batch_solve_ns_m5_w16", 1, func() {
			_ = solver.SolveInto(dst, rhs, 16) // sizes match by construction
		}},
	)
	return out, nil
}

// cellEnv builds a 400-node deployment whose field is sized for the given
// mean degree, and returns it with the node whose degree is closest to it.
func cellEnv(seed int64, degree float64) (*wsn.Env, topo.NodeID, error) {
	cfg := wsn.DefaultConfig(400, seed)
	cfg.FieldSize = math.Sqrt(float64(cfg.Nodes-1) * math.Pi * cfg.Range * cfg.Range / degree)
	env, err := wsn.NewEnv(cfg)
	if err != nil {
		return nil, 0, err
	}
	best := topo.NodeID(1)
	for id := 1; id < env.Net.Size(); id++ {
		if math.Abs(float64(env.Net.Degree(topo.NodeID(id)))-degree) <
			math.Abs(float64(env.Net.Degree(best))-degree) {
			best = topo.NodeID(id)
		}
	}
	if env.Net.Degree(best) == 0 {
		return nil, 0, fmt.Errorf("no node with neighbours in a field of side %.0f m", cfg.FieldSize)
	}
	return env, best, nil
}
