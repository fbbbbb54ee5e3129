package fleet

import (
	"io"
	"strconv"

	"repro/internal/telemetry"
)

// Fleet-level telemetry. The coordinator's registry holds what no shard
// can see — shedding and composed rejections — while each shard's own
// registry is merged in under a shard="i" label at exposition time, so one
// scrape reads the whole fleet with no merge code.

type metrics struct {
	reg      *telemetry.Registry
	shed     *telemetry.Counter // admissions served by a non-owner shard
	rejected *telemetry.Counter // admissions rejected by the whole fleet
}

func newMetrics() *metrics {
	reg := telemetry.NewRegistry()
	return &metrics{
		reg: reg,
		shed: reg.Counter("agg_fleet_shed_total",
			"Admissions served by a non-owner shard after shedding."),
		rejected: reg.Counter("agg_fleet_rejected_total",
			"Admissions the whole fleet refused (one composed rejection each)."),
	}
}

// WriteMetrics renders the fleet exposition: the coordinator's registry
// plus every shard's registry stamped with its shard label. Families
// shared across shards (agg_station_*) merge under one TYPE header.
func (f *Fleet) WriteMetrics(w io.Writer) error {
	groups := make([]telemetry.Labeled, 0, len(f.shards)+1)
	groups = append(groups, telemetry.Labeled{Registry: f.metrics.reg})
	for i, sh := range f.shards {
		groups = append(groups, telemetry.Labeled{
			Registry: sh.MetricsRegistry(),
			Labels:   []string{"shard", strconv.Itoa(i)},
		})
	}
	return telemetry.WriteAll(w, groups...)
}
