package shard

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"unijoin/client"
	"unijoin/internal/geom"
	"unijoin/internal/httpapi"
	"unijoin/internal/obs"
	"unijoin/internal/wire"
)

// ServiceConfig configures a Service.
type ServiceConfig struct {
	// Router is the shard fleet to serve over. Required.
	Router *Router
	// Timeout is the router-side ceiling per join/window request
	// (a request's own timeout_ms may shorten it; shards additionally
	// apply their own ceilings). Zero means no ceiling.
	Timeout time.Duration
	// Logger receives one line per request; nil uses slog.Default().
	Logger *slog.Logger
	// Traces caps the in-memory ring of recent request traces served
	// on GET /v1/traces (0 = obs.DefaultTraceCapacity). Every routed
	// join and window records a span tree there — the root wraps the
	// whole scatter, with one child per shard leg.
	Traces int
	// SlowQuery, when positive, logs one Warn line with the scatter
	// breakdown for every join or window whose wall time reaches it.
	SlowQuery time.Duration
}

// Service is the HTTP front of a Router: it speaks exactly the
// sjserved API — the same six endpoints, the same NDJSON and frame
// streams, the same wire types — so clients cannot tell a router from
// a single server, except that /v1/stats reports the fleet size. Its
// shard legs are always frames; the client's transport is chosen only
// at its edge. cmd/sjrouter runs one under an http.Server.
type Service struct {
	router  *Router
	timeout time.Duration
	log     *slog.Logger
	mux     *http.ServeMux
	traces  *obs.TraceStore
	slow    time.Duration

	// requests/latency/inFlight live in the router's registry, so one
	// /metrics serves both the service's request families and the
	// router's per-shard scatter families.
	requests *obs.CounterVec
	latency  *obs.HistogramVec
	inFlight *obs.Gauge

	// Binary-transport families, matching internal/server's: frames
	// and bytes written to negotiated frame streams, by frame type.
	// On a router most DATA frames are relays — counted here without
	// ever being decoded.
	frames     *obs.CounterVec // sj_frames_total{type}
	frameBytes *obs.CounterVec // sj_frame_bytes_total{type}
}

// NewService builds the HTTP layer over cfg.Router.
func NewService(cfg ServiceConfig) *Service {
	if cfg.Router == nil {
		panic("shard: ServiceConfig.Router is required")
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	reg := cfg.Router.Registry()
	s := &Service{
		router: cfg.Router, timeout: cfg.Timeout, log: log, mux: http.NewServeMux(),
		traces: obs.NewTraceStore(cfg.Traces), slow: cfg.SlowQuery,
		requests: reg.CounterVec("sj_requests_total",
			"HTTP requests served, by endpoint and status code.",
			"endpoint", "status"),
		latency: reg.HistogramVec("sj_request_seconds",
			"HTTP request wall time in seconds, by endpoint.",
			nil, "endpoint"),
		inFlight: reg.Gauge("sj_requests_in_flight",
			"Requests currently being served."),
		frames: reg.CounterVec("sj_frames_total",
			"Binary transport frames written, by frame type.",
			"type"),
		frameBytes: reg.CounterVec("sj_frame_bytes_total",
			"Binary transport bytes written (headers included), by frame type.",
			"type"),
	}
	s.mux.Handle("GET /metrics", reg.Handler())
	s.mux.Handle("GET /v1/healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.Handle("GET /v1/relations", s.instrument("relations", s.handleRelations))
	s.mux.Handle("GET /v1/stats", s.instrument("stats", s.handleStats))
	s.mux.Handle("GET /v1/traces", s.instrument("traces", httpapi.TracesHandler(s.traces)))
	s.mux.Handle("GET /v1/traces/{id}", s.instrument("traces", httpapi.TraceByIDHandler(s.traces)))
	s.mux.Handle("POST /v1/join", s.instrument("join", s.handleJoin))
	s.mux.Handle("POST /v1/window", s.instrument("window", s.handleWindow))
	s.mux.Handle("POST /v1/relations/{relation}/records", s.instrument("append", s.handleAppend))
	s.mux.Handle("/", s.instrument("notfound", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteError(w, &client.APIError{
			Status: http.StatusNotFound, Code: client.CodeNotFound,
			Message: "no such endpoint: " + r.Method + " " + r.URL.Path,
		})
	}))
	return s
}

// Handler returns the service's HTTP handler.
func (s *Service) Handler() http.Handler { return s.mux }

// instrument is the logging + metrics middleware, mirroring
// internal/server's: it ensures a request ID, propagates it to every
// downstream shard call through the context (the client package sends
// it as X-Request-Id), records the per-endpoint counters and latency,
// and logs one line with the endpoint, status, wall time, and request
// ID — so one grep follows a query through router and shards alike.
func (s *Service) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := httpapi.EnsureRequestID(r)
		w.Header().Set(httpapi.RequestIDHeader, rid)
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		rec := &httpapi.StatusRecorder{ResponseWriter: w}
		h(rec, r.WithContext(client.WithRequestID(r.Context(), rid)))
		status := rec.Status()
		elapsed := time.Since(start)
		s.requests.With(endpoint, strconv.Itoa(status)).Inc()
		s.latency.With(endpoint).Observe(elapsed.Seconds())
		s.log.Info("request",
			"endpoint", endpoint,
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"elapsed", elapsed.Round(time.Microsecond).String(),
			"request_id", rid,
		)
	})
}

// handleHealthz reports healthy only when every shard is: the router
// is up exactly when the fleet can answer queries, which is what an
// orchestrator's probe needs to know.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := s.router.Health(r.Context()); err != nil {
		httpapi.WriteError(w, &client.APIError{
			Status: http.StatusServiceUnavailable, Code: client.CodeUnavailable,
			Message: err.Error(),
		})
		return
	}
	httpapi.WriteJSON(w, map[string]string{"status": "ok"})
}

func (s *Service) handleRelations(w http.ResponseWriter, r *http.Request) {
	rels, err := s.router.Relations(r.Context())
	if err != nil {
		httpapi.WriteError(w, apiErrorFor(err))
		return
	}
	httpapi.WriteJSON(w, rels)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	stats, err := s.router.Stats(r.Context())
	if err != nil {
		httpapi.WriteError(w, apiErrorFor(err))
		return
	}
	httpapi.WriteJSON(w, stats)
}

func (s *Service) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req client.JoinRequest
	if apiErr := httpapi.DecodeBody(w, r, &req); apiErr != nil {
		httpapi.WriteError(w, apiErr)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMillis)
	defer cancel()
	ct := s.router.newCallTrace()
	start := time.Now()
	e := s.newEdge(w, r)
	defer e.close()
	sum, err := s.router.join(ctx, req, e.onFrame(req.CountOnly), ct)
	if err != nil {
		e.fail(err)
		return
	}
	s.finishJoinTrace(r, req, sum, start, ct)
	e.finish(sum)
}

// finishJoinTrace closes out a routed join's span tree — the root
// wraps the whole scatter, one child per shard leg with that shard's
// phases grafted underneath — records it, and attaches it to the
// summary when the request asked for a trace.
func (s *Service) finishJoinTrace(r *http.Request, req client.JoinRequest, sum *client.JoinSummary, start time.Time, ct *callTrace) {
	root := &obs.Span{
		ID: obs.NewSpanID(), Name: "router.join",
		Start: start, Duration: time.Since(start),
	}
	root.SetAttr("left", req.Left).SetAttr("right", req.Right).
		SetAttr("algorithm", sum.Algorithm)
	ct.attach(root)
	s.recordTrace(r, "join", root)
	if req.Trace {
		sum.Spans = httpapi.SpanDTO(root)
	}
}

func (s *Service) handleWindow(w http.ResponseWriter, r *http.Request) {
	var req client.WindowRequest
	if apiErr := httpapi.DecodeBody(w, r, &req); apiErr != nil {
		httpapi.WriteError(w, apiErr)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMillis)
	defer cancel()
	ct := s.router.newCallTrace()
	start := time.Now()
	e := s.newEdge(w, r)
	defer e.close()
	sum, err := s.router.window(ctx, req, e.onFrame(req.CountOnly), ct)
	if err != nil {
		e.fail(err)
		return
	}
	s.finishWindowTrace(r, req, start, ct)
	e.finish(sum)
}

// finishWindowTrace mirrors finishJoinTrace for window queries. The
// window wire summary carries no span tree, so the trace is reachable
// only through GET /v1/traces on the router.
func (s *Service) finishWindowTrace(r *http.Request, req client.WindowRequest, start time.Time, ct *callTrace) {
	root := &obs.Span{
		ID: obs.NewSpanID(), Name: "router.window",
		Start: start, Duration: time.Since(start),
	}
	root.SetAttr("relation", req.Relation)
	ct.attach(root)
	s.recordTrace(r, "window", root)
}

// maxAppendBodyBytes mirrors internal/server's append body cap.
const maxAppendBodyBytes = 256 << 20

// handleAppend serves the append endpoint with sjserved's exact wire
// contract, fanning the records out by stripe ownership so the fleet
// absorbs the write the way a single process would.
func (s *Service) handleAppend(w http.ResponseWriter, r *http.Request) {
	recs, err := client.ParseRecords(r.Header.Get("Content-Type"),
		http.MaxBytesReader(w, r.Body, maxAppendBodyBytes))
	if err != nil {
		httpapi.WriteError(w, &client.APIError{
			Status: http.StatusBadRequest, Code: client.CodeBadRequest,
			Message: err.Error(),
		})
		return
	}
	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	sum, aerr := s.router.Append(ctx, r.PathValue("relation"), recs)
	if aerr != nil {
		httpapi.WriteError(w, apiErrorFor(aerr))
		return
	}
	httpapi.WriteJSON(w, sum)
}

// requestContext narrows the request context by the service timeout
// and the request body's own timeout, if any.
func (s *Service) requestContext(r *http.Request, timeoutMillis int64) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	timeout := s.timeout
	if t := time.Duration(timeoutMillis) * time.Millisecond; timeoutMillis > 0 && (timeout <= 0 || t < timeout) {
		timeout = t
	}
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return context.WithCancel(ctx)
}

// recordTrace stores a routed request's span tree in the trace ring,
// keyed by the request ID (the same ID the shards key their own
// traces under, so one ID follows the query through every process),
// and emits the slow-query line when the root crosses the threshold.
func (s *Service) recordTrace(r *http.Request, kind string, root *obs.Span) {
	rid := client.RequestIDFrom(r.Context())
	if rid == "" { // not under the instrument middleware (tests)
		rid = obs.NewSpanID()
	}
	s.traces.Add(&obs.Trace{
		ID:         rid,
		Kind:       kind,
		ParentSpan: httpapi.ParentSpan(r),
		Root:       root,
	})
	if s.slow > 0 && root.Duration >= s.slow {
		s.log.Warn("slow query",
			"kind", kind,
			"request_id", rid,
			"elapsed", root.Duration.Round(time.Microsecond).String(),
			"threshold", s.slow.String(),
			"breakdown", root.Breakdown(),
		)
	}
}

// edge is the client-facing end of one routed join or window stream.
// Shard legs always arrive as binary frames. A client that negotiated
// frames gets them relayed verbatim, their CRC left for it to check;
// any other client gets each frame CRC-checked, decoded and written as
// one NDJSON line — the only place a routed query meets JSON.
type edge struct {
	fw    *httpapi.FrameWriter // frame client; nil for NDJSON
	lw    *httpapi.LineWriter  // NDJSON client; nil for frames
	pairs [][2]uint32
	recs  []geom.Record
	out   []client.RecordOut
}

// newEdge picks the client's transport from its Accept header; a
// frame stream carries the service's frame metrics.
func (s *Service) newEdge(w http.ResponseWriter, r *http.Request) *edge {
	if wire.Negotiates(r) {
		return &edge{fw: httpapi.NewFrameWriter(w, func(t wire.Type, frames, bytes int64) {
			s.frames.With(t.String()).Add(frames)
			s.frameBytes.With(t.String()).Add(bytes)
		})}
	}
	return &edge{lw: httpapi.NewLineWriter(w)}
}

// close releases the writer's pooled buffer.
func (e *edge) close() {
	if e.fw != nil {
		e.fw.Close()
		return
	}
	e.lw.Close()
}

// onFrame returns the router's DATA frame callback: nil for a
// count-only query, which streams no frames.
func (e *edge) onFrame(countOnly bool) func(raw []byte) error {
	if countOnly {
		return nil
	}
	return e.frame
}

// frame delivers one shard DATA frame to the client. A frame the
// NDJSON edge cannot decode fails the query in the internal-error
// class, with none of its entries written.
func (e *edge) frame(raw []byte) error {
	if e.fw != nil {
		e.fw.Relay(raw)
		return nil
	}
	if err := e.writeLine(raw); err != nil {
		return &client.APIError{
			Status: http.StatusInternalServerError, Code: client.CodeInternal,
			Message: "corrupt shard frame: " + err.Error(),
		}
	}
	return nil
}

// writeLine CRC-checks and decodes one PAIRS or RECORDS frame and
// writes its entries as one NDJSON line.
func (e *edge) writeLine(raw []byte) error {
	if err := wire.Verify(raw); err != nil {
		return err
	}
	f := wire.Frame{Type: wire.Type(raw[wire.OffType]), Payload: raw[wire.HeaderSize:]}
	var err error
	if f.Type == wire.TypeRecords {
		if e.recs, err = f.Records(e.recs[:0]); err == nil && len(e.recs) > 0 {
			e.out = httpapi.AppendRecordsOut(e.out[:0], e.recs)
			e.lw.WriteLine(client.WindowLine{Records: e.out})
		}
		return err
	}
	if e.pairs, err = f.Pairs(e.pairs[:0]); err == nil && len(e.pairs) > 0 {
		e.lw.WriteLine(client.JoinLine{Pairs: e.pairs})
	}
	return err
}

// finish closes a successful stream with the merged summary.
func (e *edge) finish(sum any) {
	if e.fw != nil {
		e.fw.WriteSummary(sum)
		e.fw.End()
		return
	}
	e.lw.WriteLine(struct {
		Summary any `json:"summary"`
	}{sum})
}

// fail reports a failed scatter: as an HTTP status while nothing has
// streamed, else as a terminal error line, or an ERROR frame plus END
// — the mid-stream shard-failure contract a client depends on, never
// a silently truncated stream.
func (e *edge) fail(err error) {
	apiErr := apiErrorFor(err)
	switch {
	case e.fw != nil && e.fw.Started():
		e.fw.WriteError(apiErr)
		e.fw.End()
	case e.fw != nil:
		httpapi.WriteError(e.fw.ResponseWriter(), apiErr)
	case e.lw.Started():
		e.lw.WriteLine(struct {
			Error *client.APIError `json:"error"`
		}{apiErr})
	default:
		httpapi.WriteError(e.lw.ResponseWriter(), apiErr)
	}
}

// apiErrorFor classifies a router error for the wire: a shard's own
// *APIError keeps its status and code (with the shard identified in
// the message), cancellations map to 504, and anything else — an
// unreachable shard, a transport failure — to 502 unavailable.
func apiErrorFor(err error) *client.APIError {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return &client.APIError{Status: apiErr.Status, Code: apiErr.Code, Message: err.Error()}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &client.APIError{
			Status: http.StatusGatewayTimeout, Code: client.CodeCanceled,
			Message: err.Error(),
		}
	}
	return &client.APIError{
		Status: http.StatusBadGateway, Code: client.CodeUnavailable,
		Message: err.Error(),
	}
}
