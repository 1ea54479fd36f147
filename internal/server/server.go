// Package server is sjserved's backend: a long-lived spatial-join
// query service over an in-memory unijoin.Catalog, served over HTTP by
// the one front in internal/httpapi, the same front sjrouter serves a
// shard fleet from.
//
// The catalog holds named, optionally pre-indexed relations resident
// across requests. Joins run through the public Query(...).Run(ctx)
// API and window queries through Relation.WindowQuery; their results
// stream in batches into the front's client-edge writer, as NDJSON
// lines or binary frames. Engine errors come back typed for the wire:
// ErrNeedsIndex → 422, unknown relations → 404, malformed requests →
// 400, and a canceled query stays a context error, which the front
// answers as 504.
package server

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/httpapi"
	"unijoin/internal/obs"
	"unijoin/internal/shard"
)

// DefaultBatchPairs is how many pairs or records one NDJSON batch
// line carries at most.
const DefaultBatchPairs = 1024

// maxBatchPairs caps Config.BatchPairs. Window records are the fat
// case: float32 coordinates marshal as float64 decimals of up to ~18
// characters, so a record line item can reach ~130 JSON bytes; 4096
// of them stay near half of the 1 MB line the bundled client's
// scanner accepts.
const maxBatchPairs = 4096

// Config configures a Server.
type Config struct {
	// Catalog is the relation catalog to serve. Required.
	Catalog *unijoin.Catalog
	// Timeout is the server-side ceiling on each join/window request;
	// a request's own timeout_ms may shorten it but never extend it.
	// Zero means no ceiling.
	Timeout time.Duration
	// Logger receives one line per request; nil uses slog.Default().
	Logger *slog.Logger
	// BatchPairs caps the pairs (or records) per NDJSON line (default
	// DefaultBatchPairs; clamped so every line fits the client
	// package's line scanner).
	BatchPairs int
	// Stripe, when set, makes this process one shard of a fleet: the
	// catalog is expected to hold only records overlapping the
	// stripe (sjserved -stripe slices at load), and join pairs and
	// window records are filtered by the shard ownership rules (see
	// internal/shard), so a router summing the fleet's answers gets
	// exactly the single-process result. Joins apply the pair rule
	// inside the kernel through Query.Owner, so count-only shard joins
	// keep the kernel's counting path. The full [lo, hi) test keeps
	// the answer exact even over an unsliced catalog. The stripe is
	// exposed on /v1/stats and /v1/relations for the router's fleet
	// check.
	Stripe *shard.Interval
	// Registry receives the server's metric families (GET /metrics
	// serves its rendering). Nil gets a private registry, so an
	// embedded server still counts — it just isn't scraped.
	Registry *obs.Registry
	// Traces caps the in-memory ring of recent request traces served
	// on GET /v1/traces (0 = obs.DefaultTraceCapacity). Every join and
	// window request records a span tree there, trace flag or not.
	Traces int
	// SlowQuery, when positive, logs one Warn line with the full span
	// breakdown for every join or window whose wall time reaches it.
	SlowQuery time.Duration
	// WorkloadLo and WorkloadHi bound the query-window x-histogram the
	// workload recorder keeps (Hi ≤ Lo falls back to the default
	// 0..1000 universe). Every shard of a fleet must use the same
	// bounds — sjserved derives them from -region — so a router can
	// sum the histograms index-wise on /v1/stats.
	WorkloadLo, WorkloadHi float64
}

// Server is the query service over one catalog. Create with New,
// expose with Handler, and run under any http.Server. All state a
// request touches — the catalog, the metrics — is safe for concurrent
// use, so the standard library's one-goroutine-per-request model
// needs no extra coordination.
type Server struct {
	cat    *unijoin.Catalog
	batch  int
	stripe *shard.Interval
	start  time.Time
	front  *httpapi.Front

	metrics  *metrics
	workload *obs.Workload
}

// New builds a Server over cfg.Catalog.
func New(cfg Config) *Server {
	if cfg.Catalog == nil {
		panic("server: Config.Catalog is required")
	}
	batch := cfg.BatchPairs
	if batch <= 0 {
		batch = DefaultBatchPairs
	}
	if batch > maxBatchPairs {
		batch = maxBatchPairs
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cat:      cfg.Catalog,
		batch:    batch,
		stripe:   cfg.Stripe,
		start:    time.Now(),
		workload: obs.NewWorkload(reg, cfg.WorkloadLo, cfg.WorkloadHi, obs.DefaultWorkloadBuckets),
	}
	s.front = httpapi.New(httpapi.Config{
		Backend: backend{s}, Registry: reg, Timeout: cfg.Timeout, Logger: cfg.Logger,
		Traces: cfg.Traces, SlowQuery: cfg.SlowQuery,
	})
	s.metrics = newMetrics(reg, s.front.Metrics())
	return s
}

// Handler returns the service's HTTP handler, middleware included.
func (s *Server) Handler() http.Handler { return s.front.Handler() }

// backend is the Server as the front's Backend. Server.Stats keeps its
// in-process signature, so the Backend's Stats lives here.
type backend struct{ *Server }

func (b backend) Stats(context.Context) (*client.Stats, error) {
	stats := b.Server.Stats()
	return &stats, nil
}

// stripeDTO returns the server's stripe in wire form (nil when the
// process serves the whole universe).
func (s *Server) stripeDTO() *client.Stripe {
	if s.stripe == nil {
		return nil
	}
	return shard.ToStripe(*s.stripe)
}

// Stats snapshots the server's counters (the body of GET /v1/stats).
func (s *Server) Stats() client.Stats {
	// The status-labeled request counter increments when a request
	// completes (its status is unknown before then), so accepted
	// requests — the old entry-time semantics, which count the stats
	// request reading this — are completed + in-flight.
	inFlight := int64(s.metrics.InFlight.Value())
	// The delta gauge is recomputed from the catalog at read time, so
	// it reflects compactions and reloads, not just the last append.
	var delta int64
	for _, name := range s.cat.Names() {
		if rel, ok := s.cat.Get(name); ok {
			delta += rel.DeltaRecords()
		}
	}
	return client.Stats{
		Stripe:                s.stripeDTO(),
		UptimeSeconds:         time.Since(s.start).Seconds(),
		Relations:             s.cat.Len(),
		Requests:              s.metrics.Requests.Total() + inFlight,
		InFlight:              inFlight,
		Joins:                 s.metrics.Joins.Value(),
		Windows:               s.metrics.Windows.Value(),
		Errors:                s.metrics.Errors.Value(),
		Canceled:              s.metrics.Canceled.Value(),
		PairsStreamed:         s.metrics.pairsStreamed.Value(),
		RecordsStreamed:       s.metrics.recordsStreamed.Value(),
		Appends:               s.metrics.Appends.Value(),
		RecordsIngested:       s.metrics.ingestRecords.Total(),
		Compactions:           s.metrics.compactions.Value(),
		DeltaRecords:          delta,
		JoinLatencyEWMAMillis: s.metrics.joinEWMA.Snapshot(),
		Workload:              workloadDTO(s.workload.Snapshot()),
	}
}

// workloadDTO converts the recorder's snapshot to its wire form.
func workloadDTO(w obs.WorkloadSnapshot) *client.WorkloadStats {
	return &client.WorkloadStats{
		XLo: w.XLo, XHi: w.XHi,
		Buckets:    w.Buckets,
		Windowed:   w.Windowed,
		Unwindowed: w.Unwindowed,
		Queries:    w.Queries,
	}
}
