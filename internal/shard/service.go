package shard

import (
	"log/slog"
	"net/http"
	"time"

	"unijoin/internal/httpapi"
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

// Service is sjrouter's HTTP front: the one front of internal/httpapi,
// the same handler set sjserved runs, with a Router as its backend.
// Clients cannot tell a router from a single server, except that
// /v1/stats reports the fleet. Its metric families share the
// router's registry, so one /metrics serves the request families and
// the per-shard scatter families. cmd/sjrouter runs one under an
// http.Server.
type Service struct {
	front *httpapi.Front
}

// NewService builds the HTTP front over cfg.Router.
func NewService(cfg ServiceConfig) *Service {
	if cfg.Router == nil {
		panic("shard: ServiceConfig.Router is required")
	}
	return &Service{front: httpapi.New(httpapi.Config{
		Backend: cfg.Router, Registry: cfg.Router.Registry(), Timeout: cfg.Timeout,
		Logger: cfg.Logger, Traces: cfg.Traces, SlowQuery: cfg.SlowQuery,
	})}
}

// Handler returns the service's HTTP handler.
func (s *Service) Handler() http.Handler { return s.front.Handler() }
