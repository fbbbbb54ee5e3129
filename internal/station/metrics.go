package station

import (
	"io"
	"strconv"

	"repro"
	"repro/internal/telemetry"
)

// Serving-path metrics. The registry is the station's only counter store:
// it is built once in New with every instrument handle resolved up front,
// so the per-job cost is two histogram Observes plus a handful of counter
// Adds — all allocation-free. Queue and pool shape are gauges read at
// exposition time.

// jobOutcome indexes the per-kind outcome counters.
const (
	outcomeDone = iota
	outcomeFailed
	outcomeCanceled
	outcomeCount
)

var outcomeNames = [outcomeCount]string{"done", "failed", "canceled"}

// trafficFields label the per-worker radio traffic counters, one per
// repro.Traffic field in declaration order (see trafficValues).
var trafficFields = [...]string{
	"tx_bytes", "rx_bytes", "tx_messages", "rx_messages", "app_messages", "collisions", "dropped",
}

func trafficValues(t repro.Traffic) [len(trafficFields)]int {
	return [...]int{t.TxBytes, t.RxBytes, t.TxMessages, t.RxMessages, t.AppMessages, t.Collisions, t.Dropped}
}

// metrics is the station's instrument set.
type metrics struct {
	reg       *telemetry.Registry
	queueWait *telemetry.Histogram // admission → worker pickup
	run       *telemetry.Histogram // worker pickup → finish
	// jobs[kind][outcome], kind indexed by repro.QueryKind (1-based).
	jobs               [int(repro.QueryMax) + 1][outcomeCount]*telemetry.Counter
	accepted, rejected *telemetry.Counter
	// Protocol outcomes accumulated over completed answers.
	alarms, integrityRejected, degradedClusters *telemetry.Counter
	failedClusters, takeovers, promotions       *telemetry.Counter
	workers                                     []workerMetrics
}

// workerMetrics is one pool slot's epoch accounting.
type workerMetrics struct {
	rounds  *telemetry.Counter
	traffic [len(trafficFields)]*telemetry.Counter
}

// newMetrics builds the station registry: the counters the serving path
// increments, and the gauges read off the queue and pool at scrape time.
func (s *Station) newMetrics(workers int) *metrics {
	reg := telemetry.NewRegistry()
	m := &metrics{
		reg: reg,
		queueWait: reg.Histogram("agg_station_queue_wait_seconds",
			"Time jobs spend queued between admission and worker pickup."),
		run: reg.Histogram("agg_station_run_seconds",
			"Worker execution time per job (Reset + RunQuery)."),
	}
	for k := repro.QuerySum; k <= repro.QueryMax; k++ {
		for o := 0; o < outcomeCount; o++ {
			m.jobs[int(k)][o] = reg.Counter("agg_station_jobs_total",
				"Finished jobs by query kind and outcome.",
				"kind", k.String(), "outcome", outcomeNames[o])
		}
	}
	m.accepted = reg.Counter("agg_station_submitted_total", "Admission verdicts.", "result", "accepted")
	m.rejected = reg.Counter("agg_station_submitted_total", "Admission verdicts.", "result", "rejected")
	protocol := func(event string) *telemetry.Counter {
		return reg.Counter("agg_station_protocol_total",
			"Protocol outcomes accumulated over completed answers.", "event", event)
	}
	m.alarms = protocol("alarm")
	m.integrityRejected = protocol("integrity_rejected")
	m.degradedClusters = protocol("degraded_cluster")
	m.failedClusters = protocol("failed_cluster")
	m.takeovers = protocol("takeover")
	m.promotions = protocol("promotion")
	m.workers = make([]workerMetrics, workers)
	for i := range m.workers {
		id := strconv.Itoa(i)
		m.workers[i].rounds = reg.Counter("agg_station_worker_rounds_total",
			"Epochs each pool worker ran, canceled ones included.", "worker", id)
		for f, field := range trafficFields {
			m.workers[i].traffic[f] = reg.Counter("agg_station_worker_traffic_total",
				"Radio traffic each pool worker's deployment carried, by field.",
				"worker", id, "field", field)
		}
	}

	reg.GaugeFunc("agg_station_queue_depth",
		"Jobs waiting in the admission queue.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("agg_station_queue_capacity",
		"Admission queue capacity.",
		func() float64 { return float64(cap(s.queue)) })
	reg.GaugeFunc("agg_station_workers",
		"Deployment pool size.",
		func() float64 { return float64(len(s.workers)) })
	reg.GaugeFunc("agg_station_draining",
		"1 while the station is draining, else 0.",
		func() float64 {
			if s.Draining() {
				return 1
			}
			return 0
		})
	return m
}

// ran records one epoch a worker executed and the traffic it carried.
func (m *metrics) ran(worker int, t repro.Traffic) {
	wm := &m.workers[worker]
	wm.rounds.Inc()
	for f, v := range trafficValues(t) {
		wm.traffic[f].Add(int64(v))
	}
}

// finished records one terminal job into the per-kind outcome counters,
// and a completed answer's protocol outcomes.
func (m *metrics) finished(kind repro.QueryKind, state JobState, ans repro.QueryAnswer) {
	if kind < repro.QuerySum || kind > repro.QueryMax {
		return
	}
	switch state {
	case JobDone:
		m.jobs[int(kind)][outcomeDone].Inc()
		m.alarms.Add(int64(ans.Alarms()))
		if !ans.Accepted {
			m.integrityRejected.Inc()
		}
		m.degradedClusters.Add(int64(ans.Round.DegradedClusters))
		m.failedClusters.Add(int64(ans.Round.FailedClusters))
		m.takeovers.Add(int64(ans.Round.Takeovers))
		m.promotions.Add(int64(ans.Round.Promotions))
	case JobFailed:
		m.jobs[int(kind)][outcomeFailed].Inc()
	case JobCanceled:
		m.jobs[int(kind)][outcomeCanceled].Inc()
	}
}

// MetricsRegistry exposes the station's registry — the fleet coordinator
// merges shard registries under per-shard labels, and tests assert on it
// directly.
func (s *Station) MetricsRegistry() *telemetry.Registry { return s.metrics.reg }

// WriteMetrics renders the station's metrics as Prometheus text — the
// /metricsz body for a single-station deployment.
func (s *Station) WriteMetrics(w io.Writer) error {
	return s.metrics.reg.WritePrometheus(w)
}
