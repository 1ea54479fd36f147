package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unijoin/client"
)

// span is one timed call the benchmark made into a layer (or, for
// spans grafted from a server's trace, one phase the program timed
// itself). Spans of one operation share Op; Parent links a span to
// the call that caused it.
type span struct {
	ID     int64   `json:"id"`
	Op     int64   `json:"op"`
	Parent int64   `json:"parent,omitempty"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // offset from the run's start
	End    float64 `json:"end_ms"`
}

// tracer keeps the run's spans in memory until the run ends. A nil
// tracer records nothing, so the untraced run pays one nil check per
// call site.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newOp allocates an operation ID.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) ms(at time.Time) float64 {
	return float64(at.Sub(t.origin).Nanoseconds()) / 1e6
}

// record stores a finished span and returns its ID.
func (t *tracer) record(op, parent int64, layer, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := t.ids.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Op: op, Parent: parent, Layer: layer, Name: name,
		Start: t.ms(start), End: t.ms(end)})
	t.mu.Unlock()
	return id
}

// timed runs fn inside a span and returns the span's ID.
func (t *tracer) timed(op, parent int64, layer, name string, fn func()) int64 {
	start := time.Now()
	fn()
	return t.record(op, parent, layer, name, start, time.Now())
}

// graft adds a server-reported span tree under the client span that
// received it. The program reports offsets from its own root; the
// root is placed so that it ends when the client call ended, since
// the response's last byte follows the root's end.
func (t *tracer) graft(op, parent int64, clientEnd time.Time, root *client.Span) {
	if t == nil || root == nil {
		return
	}
	base := clientEnd.Add(-time.Duration(root.DurationMillis * float64(time.Millisecond)))
	var walk func(s *client.Span, parent int64)
	walk = func(s *client.Span, parent int64) {
		start := base.Add(time.Duration(s.StartMillis * float64(time.Millisecond)))
		end := start.Add(time.Duration(s.DurationMillis * float64(time.Millisecond)))
		id := t.record(op, parent, spanLayer(s.Name), s.Name, start, end)
		for _, c := range s.Children {
			walk(c, id)
		}
	}
	walk(root, parent)
}

// spanLayers are the layers spans are attributed to, in the order the
// traced run reports their self times.
var spanLayers = []string{"bench", "client", "shard", "server", "core", "parallel", "pairbuf", "wire", "httpapi", "ingest", "rtree"}

// spanLayer names the module behind a program-reported span.
func spanLayer(name string) string {
	switch name {
	case "router.join", "router.window", "scatter":
		return "shard"
	case "partition", "sweep":
		return "core"
	default:
		return "server"
	}
}

// selfTimes returns, per layer, the summed self time of its spans: a
// span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered measures the union of the children's intervals clipped to
// the parent's.
func covered(parent span, kids []span) float64 {
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi float64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// write saves the spans and the per-layer self times as one JSON file.
func (t *tracer) write(path string) (map[string]float64, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return self, err
	}
	data, err := json.Marshal(struct {
		SelfMillis map[string]float64 `json:"self_ms"`
		Spans      []span             `json:"spans"`
	}{self, spans})
	if err != nil {
		return self, err
	}
	return self, os.WriteFile(path, data, 0o644)
}
