package fleet

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/experiment"
	"repro/internal/station"
)

// F19: serving availability through injected shard faults — the
// self-healing ablation. Each row is one seeded chaos drill against a
// 3-shard fleet under closed-loop load: a fault window opens on one shard
// mid-burst (a hard kill, a soft crash, an error burst, or a queue-full
// storm), the supervisor and the coordinator's shedding absorb it, and the
// row reports what the clients saw. Every served answer is checked against
// the offline reference; a single wrong answer fails the experiment,
// because a faulted fleet must refuse, never lie.
//
// This experiment lives in the fleet package (not internal/experiment)
// because the registry package sits below repro in the import graph and
// cannot reach the serving layer; cmd/experiments imports this package for
// the registration side effect.
var _ = experiment.Register(experiment.Experiment{
	ID:          "F19-availability",
	Title:       "Availability and recovery under injected shard faults (3 shards)",
	Description: "Seeded fault windows (kill, crash, error burst, queue storm) vs client-observed availability, recovery time, and answer integrity.",
	Run: func(cfg experiment.RunConfig) (*experiment.Result, error) {
		drill := 2500 * time.Millisecond
		at, dwell := 200*time.Millisecond, 300*time.Millisecond
		faults := []struct {
			name string
			win  chaos.Window
		}{
			{"none", chaos.Window{}},
			{"crash-kill", chaos.Window{Shard: 2, Kind: chaos.KindCrash, Kill: true}},
			{"crash-soft", chaos.Window{Shard: 2, Kind: chaos.KindCrash}},
			{"error-burst", chaos.Window{Shard: 2, Kind: chaos.KindErrors, Rate: 0.5}},
			{"queue-storm", chaos.Window{Shard: 2, Kind: chaos.KindQueueFull}},
		}
		if cfg.Quick {
			drill = 1500 * time.Millisecond
			faults = []struct {
				name string
				win  chaos.Window
			}{faults[1], faults[4]} // the kill and the storm span the space
		}
		res := &experiment.Result{
			ID:    "F19-availability",
			Title: "Serving availability under faults",
			Columns: []string{
				"fault", "availability", "served", "failed", "recovery_ms",
				"restarts", "degraded", "backpressure", "transport", "wrong",
			},
			Notes: "One drill per row, 3 shards, fault on shard 2 from 200ms for 300ms; availability is client-observed over the whole burst. recovery_ms is down->healthy (- when the shard never left rotation). wrong must be 0: a faulted fleet refuses, never lies.",
		}
		for _, f := range faults {
			plan := chaos.Plan{Seed: cfg.Seed}
			if f.name != "none" {
				w := f.win
				w.At, w.Dwell = chaos.Duration(at), chaos.Duration(dwell)
				plan.Faults = []chaos.Window{w}
			}
			rep, err := RunChaos(context.Background(), Config{
				Shards: 3,
				Station: station.Config{
					Workers:    1,
					QueueDepth: 32,
					Deploy:     repro.Options{Nodes: 80, Seed: cfg.Seed, Ideal: true},
				},
			}, plan, station.LoadConfig{
				Concurrency: 4,
				Duration:    drill,
				Kinds:       []repro.QueryKind{repro.QuerySum},
				Timeout:     time.Minute,
			})
			if err != nil {
				return nil, fmt.Errorf("%s drill: %w", f.name, err)
			}
			if rep.Load.Wrong > 0 {
				return nil, fmt.Errorf("%s drill served %d answers that differ from the offline reference", f.name, rep.Load.Wrong)
			}
			recovery := "-"
			if rep.Recovered {
				recovery = fmt.Sprintf("%.0f", float64(rep.Recovery.Milliseconds()))
			}
			res.Rows = append(res.Rows, []string{
				f.name,
				fmt.Sprintf("%.4f", rep.Availability),
				fmt.Sprintf("%d", rep.Load.Requests),
				fmt.Sprintf("%d", rep.Load.Errors),
				recovery,
				fmt.Sprintf("%d", rep.Restarts),
				fmt.Sprintf("%d", rep.Degraded),
				fmt.Sprintf("%d", rep.Load.Retries),
				fmt.Sprintf("%d", rep.Load.Transport),
				fmt.Sprintf("%d", rep.Load.Wrong),
			})
		}
		return res, nil
	},
})
