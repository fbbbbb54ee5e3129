package fleet

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Proxy-local telemetry: per-target transport outcomes. The proxy's
// /metricsz serves only what the proxy itself observes — attempts,
// hedges, retries, breaker states, and target latency — because remote
// shards already serve their own /metricsz; a scraper pulls each listener
// directly rather than having the proxy re-export (and re-label) remote
// state on every scrape.

// hedgeMinSamples is the per-target observation count required before the
// p99-derived hedge delay engages — hedging on thin data hedges
// everything. Matches the quarter-ring threshold the private estimator
// used before the shared histogram replaced it.
const hedgeMinSamples = 16

// hedgeWindow is the rolling window's rotation size: the hedge p99 is
// computed over the last hedgeWindow..2×hedgeWindow exchanges, so a
// target that turns slow re-teaches the delay within ~64 requests — the
// adaptation speed the old private sample ring had — instead of having to
// outvote the cumulative histogram's lifetime history.
const hedgeWindow = 64

type proxyMetrics struct {
	reg   *telemetry.Registry
	avail *telemetry.Window
	// Per-target instrument handles, index = ring ordinal.
	attempts  []*telemetry.Counter
	hedges    []*telemetry.Counter
	retryXpt  []*telemetry.Counter   // transport-failure retries
	retryBusy []*telemetry.Counter   // 503-with-Retry-After retries
	lat       []*telemetry.Histogram // cumulative, exposed at /metricsz
	latWin    []*telemetry.Rolling   // recent window, feeds the hedge delay
}

// observeLatency records one successful exchange into both views of the
// target's latency — the cumulative exposition histogram and the rolling
// hedge window — from the single roundTrip sample point.
func (m *proxyMetrics) observeLatency(idx int, took time.Duration) {
	m.lat[idx].Observe(took)
	m.latWin[idx].Observe(took)
}

func (p *Proxy) newMetrics() *proxyMetrics {
	reg := telemetry.NewRegistry()
	m := &proxyMetrics{reg: reg, avail: telemetry.NewWindow(availWindow, availRes)}
	breakerStates := []string{trace.BreakerClosed, trace.BreakerOpen, trace.BreakerHalfOpen}
	for i := range p.targets {
		i := i
		ord := strconv.Itoa(i)
		m.attempts = append(m.attempts, reg.Counter("agg_proxy_attempts_total",
			"Forwarded request attempts per target (hedges and retries included).",
			"target", ord))
		m.hedges = append(m.hedges, reg.Counter("agg_proxy_hedges_total",
			"Hedged second attempts fired after the p99-derived delay.",
			"target", ord))
		m.retryXpt = append(m.retryXpt, reg.Counter("agg_proxy_retries_total",
			"Idempotent-GET retries by reason.", "target", ord, "reason", "transport"))
		m.retryBusy = append(m.retryBusy, reg.Counter("agg_proxy_retries_total",
			"Idempotent-GET retries by reason.", "target", ord, "reason", "busy"))
		m.lat = append(m.lat, reg.Histogram("agg_proxy_target_seconds",
			"Per-target round-trip latency of successful exchanges.",
			"target", ord))
		m.latWin = append(m.latWin, telemetry.NewRolling(hedgeWindow))
		for _, state := range breakerStates {
			state := state
			reg.GaugeFunc("agg_proxy_breaker_state",
				"1 while the target's circuit breaker is in the labeled state.",
				func() float64 {
					if p.breakers[i].current() == state {
						return 1
					}
					return 0
				}, "target", ord, "state", state)
		}
	}
	reg.GaugeFunc("agg_proxy_availability_ratio",
		"Successful fraction of forwarded exchanges over the rolling window (1 when idle).",
		m.avail.Availability)
	reg.GaugeFunc("agg_proxy_error_budget_burn",
		"Error-budget burn rate against the 99.9% availability target.",
		func() float64 { return m.avail.BudgetBurn(availTarget) })
	return m
}

func (p *Proxy) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	_ = p.metrics.reg.WritePrometheus(w)
}
