package trace

import "repro/internal/telemetry"

// CountSink totals flight-recorder events into a telemetry registry:
// agg_trace_events_total by type, agg_trace_phase_events_total by phase,
// and the high-water gauges agg_trace_round and agg_trace_sim_time_ns.
// Sinks built over one registry share its series, so a pool of
// deployments — one sink each — reads as one merged view with no merge
// step: counts add up, the gauges keep the furthest progress any sink
// saw. Scrapes read the registry concurrently with Emit, and sinks over
// one registry may first meet an event type at the same moment (the
// registry creates each series once under its lock); Emit itself follows
// the simulation's single-threaded contract, one sink per deployment.
type CountSink struct {
	reg            *telemetry.Registry
	byType         map[string]*telemetry.Counter
	byPhase        map[string]*telemetry.Counter
	round, simTime *telemetry.Gauge
}

// NewCountSink returns a counting sink whose series live in reg.
func NewCountSink(reg *telemetry.Registry) *CountSink {
	return &CountSink{
		reg:     reg,
		byType:  make(map[string]*telemetry.Counter),
		byPhase: make(map[string]*telemetry.Counter),
		round: reg.Gauge("agg_trace_round",
			"Highest protocol round any traced deployment reached."),
		simTime: reg.Gauge("agg_trace_sim_time_ns",
			"Furthest virtual time any traced deployment reached, in nanoseconds."),
	}
}

// Emit counts the event. Each new type or phase resolves its counter once.
func (c *CountSink) Emit(ev Event) {
	ct := c.byType[ev.Type]
	if ct == nil {
		ct = c.reg.Counter("agg_trace_events_total",
			"Flight-recorder events by type.", "type", ev.Type)
		c.byType[ev.Type] = ct
	}
	ct.Inc()
	if ev.Phase != "" {
		cp := c.byPhase[ev.Phase]
		if cp == nil {
			cp = c.reg.Counter("agg_trace_phase_events_total",
				"Flight-recorder events by protocol phase.", "phase", ev.Phase)
			c.byPhase[ev.Phase] = cp
		}
		cp.Inc()
	}
	c.round.SetMax(int64(ev.Round))
	c.simTime.SetMax(int64(ev.At))
}
