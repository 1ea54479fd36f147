package shard

import (
	"context"
	"time"

	"unijoin/client"
	"unijoin/internal/obs"
)

// ShardCall records one scatter leg of a traced request: the endpoint
// it hit, when the leg started and how long it ran on the router's
// clock, the span tree the shard returned in its summary (traced
// requests only), and the leg's failure, if any.
type ShardCall struct {
	Endpoint string
	Start    time.Time
	Elapsed  time.Duration
	Spans    *client.Span
	Err      error
}

// callTrace threads per-leg tracing through one scatter. The span IDs
// are minted before the fan-out and sent downstream as X-Parent-Span,
// so each shard's own trace records which scatter leg called it — the
// cross-process edge that joins the two trees.
type callTrace struct {
	start time.Time
	ids   []string
	calls []ShardCall
}

// newCallTrace starts a call trace sized for the router's fleet.
func (r *Router) newCallTrace() *callTrace {
	ct := &callTrace{
		start: time.Now(),
		ids:   make([]string, len(r.clients)),
		calls: make([]ShardCall, len(r.clients)),
	}
	for i := range ct.ids {
		ct.ids[i] = obs.NewSpanID()
	}
	return ct
}

// traced wraps a scatter body to record the leg into ct and propagate
// the leg's span ID downstream.
func traced[T any](r *Router, ct *callTrace, fn leg[T]) leg[T] {
	return func(ctx context.Context, i int, cl *client.Client) (T, error) {
		c := &ct.calls[i]
		c.Endpoint = r.endpoints[i]
		c.Start = time.Now()
		v, err := fn(client.WithParentSpan(ctx, ct.ids[i]), i, cl)
		c.Elapsed = time.Since(c.Start)
		c.Err = err
		return v, err
	}
}

// root closes a completed call trace into the request's span tree: a
// root named name that wraps the whole scatter, with one "scatter"
// child per shard leg, carrying the endpoint as its shard attribute
// and grafting the span tree the shard returned.
func (ct *callTrace) root(name string) *obs.Span {
	root := &obs.Span{
		ID: obs.NewSpanID(), Name: name,
		Start: ct.start, Duration: time.Since(ct.start),
	}
	for i := range ct.calls {
		c := &ct.calls[i]
		child := &obs.Span{
			ID: ct.ids[i], Name: "scatter",
			Start: c.Start, Duration: c.Elapsed,
			Attrs: map[string]string{"shard": c.Endpoint},
		}
		if c.Err != nil {
			child.Attrs["error"] = c.Err.Error()
		}
		if c.Spans != nil {
			child.Children = append(child.Children, obsSpanFromDTO(c.Spans, c.Start))
		}
		root.Children = append(root.Children, child)
	}
	return root
}

// obsSpanFromDTO rebases a shard's wire span tree onto base — the
// scatter leg's start on the router's clock. Wire offsets are all
// relative to the shard tree's root, so the same base serves every
// depth; rebasing sidesteps cross-host clock skew entirely (the
// shard's wall-clock start never crosses the wire).
func obsSpanFromDTO(d *client.Span, base time.Time) *obs.Span {
	s := &obs.Span{
		ID:       d.ID,
		Name:     d.Name,
		Start:    base.Add(time.Duration(d.StartMillis * float64(time.Millisecond))),
		Duration: time.Duration(d.DurationMillis * float64(time.Millisecond)),
	}
	if len(d.Attrs) > 0 {
		s.Attrs = make(map[string]string, len(d.Attrs))
		for k, v := range d.Attrs {
			s.Attrs[k] = v
		}
	}
	for _, c := range d.Children {
		s.Children = append(s.Children, obsSpanFromDTO(c, base))
	}
	return s
}
