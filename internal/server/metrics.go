package server

import (
	"time"

	"unijoin/internal/httpapi"
	"unijoin/internal/obs"
)

// metrics is the server's instrumentation: every counter behind
// GET /v1/stats plus the join histograms exposed on GET /metrics.
// All handles come from one obs.Registry, so the stats endpoint and
// the Prometheus exposition can never disagree. The request-level
// families are the front's.
type metrics struct {
	*httpapi.Metrics

	pairsStreamed   *obs.Counter
	recordsStreamed *obs.Counter

	// Ingestion families: records written per relation, append wall
	// time, compactions triggered, and the per-relation delta-log
	// depth (distance to the next compaction).
	ingestRecords *obs.CounterVec // sj_ingest_records_total{relation}
	ingestLatency *obs.Histogram  // sj_ingest_seconds
	compactions   *obs.Counter
	deltaRecords  *obs.GaugeVec // sj_delta_records{relation}

	// joinLatency is per-algorithm end-to-end join time; phase splits
	// it into the paper's phases (partition/sweep/stream) across all
	// algorithms.
	joinLatency *obs.HistogramVec
	phase       *obs.HistogramVec

	// joinEWMA is the per-algorithm smoothed latency (milliseconds)
	// surfaced on /v1/stats — the steady-state estimate a planner or
	// rebalancer reads without parsing histogram buckets.
	joinEWMA *obs.EWMASet
}

// joinBuckets widens obs.DefBuckets upward: a cold PBSM join of two
// large relations can run for minutes while an ST probe finishes in
// microseconds, and both must land inside the histogram's range.
var joinBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// newMetrics registers the server's own metric families on reg, beside
// the front's request-level families m.
func newMetrics(reg *obs.Registry, m *httpapi.Metrics) *metrics {
	return &metrics{
		Metrics: m,
		pairsStreamed: reg.Counter("sj_pairs_streamed_total",
			"Result pairs written to join response streams."),
		recordsStreamed: reg.Counter("sj_records_streamed_total",
			"Records written to window response streams."),
		ingestRecords: reg.CounterVec("sj_ingest_records_total",
			"Records appended to relations, by relation.",
			"relation"),
		ingestLatency: reg.Histogram("sj_ingest_seconds",
			"Append request execution time in seconds, including any compaction it triggers.",
			nil),
		compactions: reg.Counter("sj_compactions_total",
			"Delta-log compactions triggered by appends or requested explicitly."),
		deltaRecords: reg.GaugeVec("sj_delta_records",
			"Records in a relation's delta log past its packed base, by relation.",
			"relation"),
		joinLatency: reg.HistogramVec("sj_join_seconds",
			"Successful join execution time in seconds, by algorithm.",
			joinBuckets, "algorithm"),
		phase: reg.HistogramVec("sj_join_phase_seconds",
			"Join phase wall time in seconds: partition (input preparation), sweep (join kernel), stream (response writing).",
			joinBuckets, "phase"),
		joinEWMA: obs.NewEWMASet(obs.DefaultAlpha),
	}
}

// observeJoin records one successful join: the per-algorithm latency
// histogram and EWMA, and the per-phase breakdown.
func (m *metrics) observeJoin(algorithm string, elapsed, partition, sweep, stream time.Duration) {
	m.joinLatency.With(algorithm).Observe(elapsed.Seconds())
	m.joinEWMA.Observe(algorithm, elapsed.Seconds()*1000)
	m.phase.With("partition").Observe(partition.Seconds())
	m.phase.With("sweep").Observe(sweep.Seconds())
	m.phase.With("stream").Observe(stream.Seconds())
}

// observeIngest records one successful append against a relation:
// records written, wall time, compactions, and the relation's
// delta-log depth afterwards.
func (m *metrics) observeIngest(relation string, appended int64, elapsedSec float64, compacted bool, delta int64) {
	m.ingestRecords.With(relation).Add(appended)
	m.ingestLatency.Observe(elapsedSec)
	if compacted {
		m.compactions.Inc()
	}
	m.deltaRecords.With(relation).Set(float64(delta))
}
