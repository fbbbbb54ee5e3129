package fleet

import (
	"io"
	"strconv"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Fleet-level telemetry. The coordinator's registry holds what no shard
// can see — shedding, composed rejections, supervisor activity, fan-out
// latency per shard, and the rolling availability window — while each
// shard's own registry is merged in under a shard="i" label at exposition
// time, so one scrape reads the whole fleet with no merge code.

// availTarget is the serving availability objective the error-budget burn
// gauge is computed against (three nines over the rolling window).
const availTarget = 0.999

// availWindow and availRes size the rolling availability window: a
// minute of per-second buckets — long enough to smooth one chaos crash
// window, short enough that recovery is visible while watching.
const (
	availWindow = time.Minute
	availRes    = time.Second
)

type metrics struct {
	reg    *telemetry.Registry
	avail  *telemetry.Window
	fanout []*telemetry.Histogram // per-shard fan-out completion latency

	shed     *telemetry.Counter // admissions served by a non-owner shard
	rejected *telemetry.Counter // admissions rejected by the whole fleet
	restarts *telemetry.Counter // supervisor-initiated shard restarts
	degraded *telemetry.Counter // fan-outs answered partially
}

// shardStates are the supervisor states exposed as 0/1 gauges.
var shardStates = []string{
	trace.ShardHealthy, trace.ShardSuspect, trace.ShardDown, trace.ShardRestarting,
}

func (f *Fleet) newMetrics() *metrics {
	reg := telemetry.NewRegistry()
	m := &metrics{
		reg:   reg,
		avail: telemetry.NewWindow(availWindow, availRes),
		shed: reg.Counter("agg_fleet_shed_total",
			"Admissions served by a non-owner shard after shedding."),
		rejected: reg.Counter("agg_fleet_rejected_total",
			"Admissions the whole fleet refused (one composed rejection each)."),
		restarts: reg.Counter("agg_fleet_restarts_total",
			"Supervisor-initiated shard restarts."),
		degraded: reg.Counter("agg_fleet_degraded_total",
			"Fan-outs answered partially (some shards missing)."),
	}

	for _, sl := range f.slots {
		sl := sl
		ord := strconv.Itoa(sl.id)
		for _, state := range shardStates {
			state := state
			reg.GaugeFunc("agg_fleet_shard_state",
				"1 while the shard is in the labeled supervisor state.",
				func() float64 {
					if sl.State() == state {
						return 1
					}
					return 0
				}, "shard", ord, "state", state)
		}
		m.fanout = append(m.fanout, reg.Histogram("agg_fleet_fanout_seconds",
			"Fan-out latency per shard: SubmitAll admission to job completion.",
			"shard", ord))
	}

	reg.GaugeFunc("agg_fleet_availability_ratio",
		"Served fraction of admissions over the rolling window (1 when idle).",
		m.avail.Availability)
	reg.GaugeFunc("agg_fleet_error_budget_burn",
		"Error-budget burn rate against the 99.9% availability target.",
		func() float64 { return m.avail.BudgetBurn(availTarget) })
	return m
}

// WriteMetrics renders the fleet exposition: the coordinator's registry
// plus every live shard's registry stamped with its shard label. Families
// shared across shards (agg_station_*) merge under one TYPE header.
func (f *Fleet) WriteMetrics(w io.Writer) error {
	groups := make([]telemetry.Labeled, 0, len(f.slots)+1)
	groups = append(groups, telemetry.Labeled{Registry: f.metrics.reg})
	for _, sl := range f.slots {
		if sh := sl.st.Load(); sh != nil {
			groups = append(groups, telemetry.Labeled{
				Registry: sh.MetricsRegistry(),
				Labels:   []string{"shard", strconv.Itoa(sl.id)},
			})
		}
	}
	return telemetry.WriteAll(w, groups...)
}
