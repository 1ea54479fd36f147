package httpapi

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"unijoin/client"
	"unijoin/internal/obs"
)

// Backend is what the front serves: the query service's six
// operations over either a local catalog (internal/server) or a shard
// fleet (shard.Router). Join and Window stream their results into out
// and return the summary plus the request's span tree; the front
// records the tree, derives the summary's trace from it, and writes
// the terminal line or frame. Every error is either a
// *client.APIError, already classified for the wire, or a context
// error (a timeout or disconnect, answered as 504); anything else is
// answered as a 500.
type Backend interface {
	Join(ctx context.Context, req client.JoinRequest, out *Stream) (*client.JoinSummary, *obs.Span, error)
	Window(ctx context.Context, req client.WindowRequest, out *Stream) (*client.WindowSummary, *obs.Span, error)
	Append(ctx context.Context, relation string, recs []client.RecordIn) (*client.AppendSummary, error)
	Relations(ctx context.Context) ([]client.RelationInfo, error)
	Stats(ctx context.Context) (*client.Stats, error)
	Health(ctx context.Context) error
}

// Config configures a Front.
type Config struct {
	// Backend answers the queries. Required.
	Backend Backend
	// Registry receives the request-level metric families and is
	// served on GET /metrics. Required.
	Registry *obs.Registry
	// Timeout is the ceiling on each join, window and append request;
	// a request's own timeout_ms may shorten it but never extend it.
	// Zero means no ceiling.
	Timeout time.Duration
	// Logger receives one line per request; nil uses slog.Default().
	Logger *slog.Logger
	// Traces caps the ring of recent request traces served on
	// GET /v1/traces (0 = obs.DefaultTraceCapacity).
	Traces int
	// SlowQuery, when positive, logs one Warn line with the span
	// breakdown for every join or window whose wall time reaches it.
	SlowQuery time.Duration
}

// Metrics are the request-level families of a front, the same on
// sjserved and sjrouter. They live in the front's registry, beside
// whatever families the backend registers there.
type Metrics struct {
	// Requests is labeled by endpoint and status code, so a scrape
	// can tell join 200s from join 504s without a cardinality
	// explosion.
	Requests *obs.CounterVec   // sj_requests_total{endpoint,status}
	Latency  *obs.HistogramVec // sj_request_seconds{endpoint}
	InFlight *obs.Gauge        // sj_requests_in_flight

	// Frames and FrameBytes count what negotiated frame streams wrote,
	// by frame type (pairs/records/summary/error/end). On a router
	// most DATA frames are relays, counted without being decoded.
	Frames     *obs.CounterVec // sj_frames_total{type}
	FrameBytes *obs.CounterVec // sj_frame_bytes_total{type}

	// Joins, Windows and Appends count requests on arrival, before
	// validation.
	Joins   *obs.Counter
	Windows *obs.Counter
	Appends *obs.Counter
	// Errors counts failed requests, excluding cancellations, which
	// Canceled counts: those are load shedding, not failures, so
	// Errors stays alertable.
	Errors   *obs.Counter
	Canceled *obs.Counter
}

func newMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Requests: reg.CounterVec("sj_requests_total",
			"HTTP requests served, by endpoint and status code.",
			"endpoint", "status"),
		Latency: reg.HistogramVec("sj_request_seconds",
			"HTTP request wall time in seconds, by endpoint.",
			nil, "endpoint"),
		InFlight: reg.Gauge("sj_requests_in_flight",
			"Requests currently being served."),
		Frames: reg.CounterVec("sj_frames_total",
			"Binary transport frames written, by frame type.",
			"type"),
		FrameBytes: reg.CounterVec("sj_frame_bytes_total",
			"Binary transport bytes written (headers included), by frame type.",
			"type"),
		Joins: reg.Counter("sj_joins_total",
			"Join requests accepted (before validation)."),
		Windows: reg.Counter("sj_windows_total",
			"Window requests accepted (before validation)."),
		Appends: reg.Counter("sj_appends_total",
			"Append requests accepted (before validation)."),
		Errors: reg.Counter("sj_errors_total",
			"Failed requests, excluding cancellations."),
		Canceled: reg.Counter("sj_canceled_total",
			"Requests canceled by timeout or client disconnect."),
	}
}

// Front is the HTTP API of both serving processes: one route table,
// one handler per endpoint, one middleware, over a Backend. Create
// with New and serve Handler under any http.Server.
type Front struct {
	b       Backend
	timeout time.Duration
	slow    time.Duration
	log     *slog.Logger
	traces  *obs.TraceStore
	m       *Metrics
	mux     *http.ServeMux
}

// maxAppendBodyBytes bounds one append request body. Bulk loads
// beyond this stream as several requests; at ~60 bytes per NDJSON
// record line the cap still admits ~4M records per call.
const maxAppendBodyBytes = 256 << 20

// New builds the front over cfg.Backend.
func New(cfg Config) *Front {
	if cfg.Backend == nil || cfg.Registry == nil {
		panic("httpapi: Config.Backend and Config.Registry are required")
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	f := &Front{
		b: cfg.Backend, timeout: cfg.Timeout, slow: cfg.SlowQuery, log: log,
		traces: obs.NewTraceStore(cfg.Traces), m: newMetrics(cfg.Registry), mux: http.NewServeMux(),
	}
	// The exposition endpoint is deliberately uninstrumented: scrapes
	// should not move the request counters they report.
	f.mux.Handle("GET /metrics", cfg.Registry.Handler())
	f.mux.Handle("GET /v1/healthz", f.instrument("healthz", f.handleHealthz))
	f.mux.Handle("GET /v1/relations", f.instrument("relations", f.handleRelations))
	f.mux.Handle("GET /v1/stats", f.instrument("stats", f.handleStats))
	f.mux.Handle("GET /v1/traces", f.instrument("traces", TracesHandler(f.traces)))
	f.mux.Handle("GET /v1/traces/{id}", f.instrument("traces", TraceByIDHandler(f.traces)))
	f.mux.Handle("POST /v1/join", f.instrument("join", f.handleJoin))
	f.mux.Handle("POST /v1/window", f.instrument("window", f.handleWindow))
	f.mux.Handle("POST /v1/relations/{relation}/records", f.instrument("append", f.handleAppend))
	f.mux.Handle("/", f.instrument("notfound", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, &client.APIError{
			Status: http.StatusNotFound, Code: client.CodeNotFound,
			Message: "no such endpoint: " + r.Method + " " + r.URL.Path,
		})
	}))
	return f
}

// Handler returns the front's HTTP handler, middleware included.
func (f *Front) Handler() http.Handler { return f.mux }

// Metrics returns the front's request-level metric handles.
func (f *Front) Metrics() *Metrics { return f.m }

// instrument is the logging and metrics middleware. It ensures a
// request ID (honoring one sent by a router upstream) and puts it in
// the context, where recordTrace keys the trace by it and the client
// package forwards it on every downstream shard call. It counts the
// request by endpoint and status, and logs one line, so one grep
// follows a query through router and shards alike.
func (f *Front) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := EnsureRequestID(r)
		w.Header().Set(RequestIDHeader, rid)
		f.m.InFlight.Add(1)
		defer f.m.InFlight.Add(-1)
		rec := &StatusRecorder{ResponseWriter: w}
		h(rec, r.WithContext(client.WithRequestID(r.Context(), rid)))
		status := rec.Status()
		elapsed := time.Since(start)
		f.m.Requests.With(endpoint, strconv.Itoa(status)).Inc()
		f.m.Latency.With(endpoint).Observe(elapsed.Seconds())
		// A 504 is a cancellation, counted where it is classified.
		if status >= 400 && status != http.StatusGatewayTimeout {
			f.m.Errors.Inc()
		}
		f.log.Info("request",
			"endpoint", endpoint,
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"elapsed", elapsed.Round(time.Microsecond).String(),
			"request_id", rid,
		)
	})
}

// requestContext narrows the request's context, which already carries
// the client-disconnect signal, by the front's ceiling and then by the
// request body's own timeout, if any.
func (f *Front) requestContext(r *http.Request, timeoutMillis int64) (context.Context, context.CancelFunc) {
	timeout := f.timeout
	if t := time.Duration(timeoutMillis) * time.Millisecond; timeoutMillis > 0 && (timeout <= 0 || t < timeout) {
		timeout = t
	}
	if timeout > 0 {
		return context.WithTimeout(r.Context(), timeout)
	}
	return context.WithCancel(r.Context())
}

// recordTrace stores a completed request's span tree in the trace
// ring, keyed by the request ID (the ID a router's shards key their
// own traces under, so one ID follows the query through every
// process), and logs the slow-query line when the root crosses the
// threshold.
func (f *Front) recordTrace(r *http.Request, kind string, root *obs.Span) {
	rid := client.RequestIDFrom(r.Context())
	f.traces.Add(&obs.Trace{
		ID:         rid,
		Kind:       kind,
		ParentSpan: ParentSpan(r),
		Root:       root,
	})
	if f.slow > 0 && root.Duration >= f.slow {
		f.log.Warn("slow query",
			"kind", kind,
			"request_id", rid,
			"elapsed", root.Duration.Round(time.Microsecond).String(),
			"threshold", f.slow.String(),
			"breakdown", root.Breakdown(),
		)
	}
}

// apiError classifies a backend error for the wire.
func apiError(err error) *client.APIError {
	var apiErr *client.APIError
	switch {
	case errors.As(err, &apiErr):
		return apiErr
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return &client.APIError{
			Status: http.StatusGatewayTimeout, Code: client.CodeCanceled,
			Message: err.Error(),
		}
	default:
		return &client.APIError{
			Status: http.StatusInternalServerError, Code: client.CodeInternal,
			Message: err.Error(),
		}
	}
}

// writeError sends a backend error as the response status. The
// middleware counts the failure; a cancellation is counted here.
func (f *Front) writeError(w http.ResponseWriter, err error) {
	apiErr := apiError(err)
	if apiErr.Code == client.CodeCanceled {
		f.m.Canceled.Inc()
	}
	WriteError(w, apiErr)
}

// handleHealthz reports healthy exactly when the backend can answer
// queries: always for a local catalog, only with every shard up for
// a router — what an orchestrator's probe needs to know.
func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := f.b.Health(r.Context()); err != nil {
		WriteError(w, &client.APIError{
			Status: http.StatusServiceUnavailable, Code: client.CodeUnavailable,
			Message: apiError(err).Message,
		})
		return
	}
	WriteJSON(w, map[string]string{"status": "ok"})
}

func (f *Front) handleRelations(w http.ResponseWriter, r *http.Request) {
	rels, err := f.b.Relations(r.Context())
	if err != nil {
		f.writeError(w, err)
		return
	}
	WriteJSON(w, rels)
}

func (f *Front) handleStats(w http.ResponseWriter, r *http.Request) {
	stats, err := f.b.Stats(r.Context())
	if err != nil {
		f.writeError(w, err)
		return
	}
	WriteJSON(w, stats)
}

func (f *Front) handleJoin(w http.ResponseWriter, r *http.Request) {
	f.m.Joins.Inc()
	var req client.JoinRequest
	if apiErr := DecodeBody(w, r, &req); apiErr != nil {
		WriteError(w, apiErr)
		return
	}
	ctx, cancel := f.requestContext(r, req.TimeoutMillis)
	defer cancel()
	out := f.newStream(w, r)
	defer out.close()
	sum, root, err := f.b.Join(ctx, req, out)
	if err != nil {
		out.Fail(err)
		return
	}
	f.recordTrace(r, "join", root)
	if req.Trace {
		sum.Trace = PhaseTrace(root)
		sum.Spans = SpanDTO(root)
	}
	out.Finish(sum)
}

// handleWindow serves window queries. The window summary carries no
// span tree, so the trace is reachable only through GET /v1/traces.
func (f *Front) handleWindow(w http.ResponseWriter, r *http.Request) {
	f.m.Windows.Inc()
	var req client.WindowRequest
	if apiErr := DecodeBody(w, r, &req); apiErr != nil {
		WriteError(w, apiErr)
		return
	}
	ctx, cancel := f.requestContext(r, req.TimeoutMillis)
	defer cancel()
	out := f.newStream(w, r)
	defer out.close()
	sum, root, err := f.b.Window(ctx, req, out)
	if err != nil {
		out.Fail(err)
		return
	}
	f.recordTrace(r, "window", root)
	out.Finish(sum)
}

// handleAppend serves POST /v1/relations/{relation}/records. The body
// is one JSON record object, a JSON array of them, or, with an NDJSON
// content type, one record per line (the bulk format sjgen -ndjson
// emits).
func (f *Front) handleAppend(w http.ResponseWriter, r *http.Request) {
	f.m.Appends.Inc()
	recs, err := client.ParseRecords(r.Header.Get("Content-Type"),
		http.MaxBytesReader(w, r.Body, maxAppendBodyBytes))
	if err != nil {
		WriteError(w, &client.APIError{
			Status: http.StatusBadRequest, Code: client.CodeBadRequest,
			Message: err.Error(),
		})
		return
	}
	ctx, cancel := f.requestContext(r, 0)
	defer cancel()
	sum, err := f.b.Append(ctx, r.PathValue("relation"), recs)
	if err != nil {
		f.writeError(w, err)
		return
	}
	WriteJSON(w, sum)
}
