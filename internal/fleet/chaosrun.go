package fleet

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"repro"
	"repro/internal/benchio"
	"repro/internal/chaos"
	"repro/internal/station"
	"repro/internal/trace"
)

// ChaosReport is one availability drill's outcome: the load burst's view
// from outside (availability, wrong answers) joined with the fleet's view
// from inside (restarts, degraded fan-outs, the full event log) and the
// derived recovery time — how long the first downed shard stayed out of
// the rotation.
type ChaosReport struct {
	Shards int                `json:"shards"`
	Plan   chaos.Plan         `json:"plan"`
	Load   station.LoadReport `json:"load"`

	// Availability is served / (served + hard errors) over the burst.
	// Backpressure and transport retries that eventually succeeded do not
	// count against it — unavailability is a request the client gave up on.
	Availability float64 `json:"availability"`
	// Recovery is the first shard's down → healthy span (zero when no
	// shard went down, or none recovered before the burst ended).
	Recovery  time.Duration `json:"recovery_ns"`
	Recovered bool          `json:"recovered"`
	Restarts  int64         `json:"restarts"`
	Degraded  int64         `json:"degraded"`

	Events []trace.Event `json:"events,omitempty"`
}

// RunChaos boots an in-process fleet with the fault plan armed, drives the
// load burst through it over a real TCP listener, and reports availability
// and recovery. Every served answer is verified against the offline
// reference (computed here when the load config doesn't carry one): a
// faulted fleet may refuse requests, it must never serve a wrong answer.
func RunChaos(ctx context.Context, cfg Config, plan chaos.Plan, load station.LoadConfig) (ChaosReport, error) {
	ctl, err := chaos.NewController(plan)
	if err != nil {
		return ChaosReport{}, err
	}
	col := &trace.Collector{}
	cfg.Chaos = ctl
	cfg.Trace = col

	if load.VerifyAnswers == nil {
		load.VerifyAnswers, err = ReferenceAnswers(cfg.Station.Deploy, load.Kinds)
		if err != nil {
			return ChaosReport{}, fmt.Errorf("fleet: chaos reference: %w", err)
		}
	}

	fl, err := New(cfg)
	if err != nil {
		return ChaosReport{}, err
	}
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		_ = fl.Drain(dctx)
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ChaosReport{}, err
	}
	srv := station.NewServer(station.NewAPI(fl).Handler())
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	load.BaseURL = "http://" + ln.Addr().String()
	ctl.Start() // arm the plan the instant traffic can arrive
	rep, err := station.RunLoad(ctx, load)
	if err != nil {
		return ChaosReport{}, err
	}

	events := col.Events()
	out := ChaosReport{
		Shards:   fl.Shards(),
		Plan:     plan,
		Load:     rep,
		Restarts: fl.metrics.restarts.Value(),
		Degraded: fl.metrics.degraded.Value(),
		Events:   events,
	}
	if total := rep.Requests + rep.Errors; total > 0 {
		out.Availability = float64(rep.Requests) / float64(total)
	}
	out.Recovery, out.Recovered = RecoveryTime(events)
	return out, nil
}

// ReferenceAnswers computes the offline ground truth the load driver
// verifies served answers against: one answer per kind, each from a fresh
// reset to the template seed — exactly the state a station serves a
// seedless query from.
func ReferenceAnswers(opts repro.Options, kinds []repro.QueryKind) (map[string]repro.QueryAnswer, error) {
	if len(kinds) == 0 {
		kinds = station.AllQueryKinds()
	}
	dep, err := repro.NewDeployment(opts)
	if err != nil {
		return nil, err
	}
	out := make(map[string]repro.QueryAnswer, len(kinds))
	for _, k := range kinds {
		if err := dep.Reset(opts.Seed); err != nil {
			return nil, err
		}
		ans, err := dep.RunQuery(k, repro.ClusterOptions{})
		if err != nil {
			return nil, err
		}
		out[k.String()] = ans
	}
	return out, nil
}

// RecoveryTime derives the headline recovery metric from the event log:
// the span between the first shard-down transition and that same shard's
// next return to healthy. ok is false when no shard went down or the
// downed shard never made it back.
func RecoveryTime(events []trace.Event) (time.Duration, bool) {
	downAt := time.Duration(-1)
	var downNode int
	for _, ev := range events {
		if ev.Phase != trace.PhaseFleet || ev.Type != trace.TypeShard {
			continue
		}
		if downAt < 0 {
			if ev.Cause == trace.ShardDown {
				downAt, downNode = ev.At, int(ev.Node)
			}
			continue
		}
		if int(ev.Node) == downNode && ev.Cause == trace.ShardHealthy {
			return ev.At - downAt, true
		}
	}
	return 0, false
}

// ChaosSnapshot renders the drill as a benchio snapshot so benchtrend
// tracks resilience like any other performance number:
// BenchmarkServeRecovery is the down→healthy span in ns/op, and
// BenchmarkServeAvailability encodes unavailability as parts-per-million
// (0 = perfect; 10000 = 99% available) — ns/op is just benchio's scalar
// slot, and lower is better for both.
func ChaosSnapshot(r ChaosReport, date, goVersion, host string) benchio.Snapshot {
	unavailPPM := (1 - r.Availability) * 1e6
	if r.Load.Requests+r.Load.Errors == 0 {
		unavailPPM = 0
	}
	return benchio.Snapshot{
		Date:      date,
		GoVersion: goVersion,
		Host:      host,
		Benchmarks: map[string]benchio.Metrics{
			"BenchmarkServeRecovery":     {NsPerOp: float64(r.Recovery.Nanoseconds())},
			"BenchmarkServeAvailability": {NsPerOp: unavailPPM},
		},
	}
}

// ChaosSummary renders the drill for humans, ending with the verdict the
// smoke gates on.
func ChaosSummary(r ChaosReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos drill: %d shard(s), %d fault window(s), seed %d\n",
		r.Shards, len(r.Plan.Faults), r.Plan.Seed)
	fmt.Fprintf(&b, "availability: %.4f%%  (served %d, failed %d)\n",
		r.Availability*100, r.Load.Requests, r.Load.Errors)
	fmt.Fprintf(&b, "retries: %d backpressure, %d transport\n", r.Load.Retries, r.Load.Transport)
	if r.Recovered {
		fmt.Fprintf(&b, "recovery: %v (down -> healthy)\n", r.Recovery.Round(time.Millisecond))
	} else {
		fmt.Fprintf(&b, "recovery: no down shard returned during the burst\n")
	}
	fmt.Fprintf(&b, "restarts: %d  degraded fan-outs: %d  fleet events: %d\n",
		r.Restarts, r.Degraded, len(r.Events))
	if r.Load.Wrong > 0 {
		fmt.Fprintf(&b, "WRONG ANSWERS: %d — a faulted fleet must refuse, never lie", r.Load.Wrong)
	} else {
		fmt.Fprintf(&b, "wrong answers: 0 (every served answer matched the offline reference)")
	}
	return b.String()
}
