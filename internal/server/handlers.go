package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/httpapi"
	"unijoin/internal/obs"
)

// maxParallelism caps the per-request worker count: the parallel
// engine sizes partition structures from it, so an unclamped request
// value would let one client allocate the service to death. 256
// workers is far past any host this serves.
const maxParallelism = 256

// Health reports the service healthy: a local catalog can always
// answer.
func (s *Server) Health(context.Context) error { return nil }

// Relations lists the catalog, with the stripe in stripe mode.
func (s *Server) Relations(context.Context) ([]client.RelationInfo, error) {
	names := s.cat.Names()
	stripe := s.stripeDTO()
	out := make([]client.RelationInfo, 0, len(names))
	for _, name := range names {
		rel, ok := s.cat.Get(name)
		if !ok { // dropped between Names and Get
			continue
		}
		info := relationInfo(name, rel)
		info.Stripe = stripe
		out = append(out, info)
	}
	return out, nil
}

// Join runs one join over the catalog, streaming its pairs into out
// in batches of the configured size.
func (s *Server) Join(ctx context.Context, req client.JoinRequest, out *httpapi.Stream) (*client.JoinSummary, *obs.Span, error) {
	left, ok := s.cat.Get(req.Left)
	if !ok {
		return nil, nil, notFoundErr("left", req.Left)
	}
	right, ok := s.cat.Get(req.Right)
	if !ok {
		return nil, nil, notFoundErr("right", req.Right)
	}
	alg, err := unijoin.ParseAlgorithm(req.Algorithm)
	if err != nil {
		return nil, nil, badRequestErr(err)
	}
	// The workload recorder sees every accepted query: the relation
	// names are catalog-validated above and the algorithm comes from
	// the parsed set, so both are bounded label values.
	s.workload.ObserveQuery(req.Left, alg.String())
	s.workload.ObserveQuery(req.Right, alg.String())
	if req.Window != nil {
		s.workload.ObserveWindow(req.Window.XLo, req.Window.XHi)
	} else {
		s.workload.ObserveUnwindowed()
	}

	// flushPairs streams one batch, accumulating the stream phase:
	// wall time spent encoding and flushing (all writes happen on this
	// goroutine — EmitBatch callbacks run synchronously).
	var streamTime time.Duration
	flushPairs := func(batch [][2]uint32) {
		s.metrics.pairsStreamed.Add(int64(len(batch)))
		t0 := time.Now()
		out.WritePairs(batch)
		streamTime += time.Since(t0)
	}
	parallelism := min(max(req.Parallelism, 0), maxParallelism)
	q := s.cat.Workspace().Query(left, right).Algorithm(alg).Parallelism(parallelism)
	if req.Window != nil {
		q.Window(toRect(*req.Window))
	}
	// In stripe mode the join keeps only the pairs this shard owns
	// (the reference-point rule of internal/shard, which makes a
	// fleet's summed answers exactly the single-process result). The
	// kernel applies it, so count-only joins keep the counting path
	// and res.Count() is the owned count.
	if s.stripe != nil {
		q.Owner(s.stripe.Lo, s.stripe.Hi)
	}
	var pairs [][2]uint32
	if req.CountOnly {
		q.CountOnly()
	} else {
		pairs = make([][2]uint32, 0, s.batch)
		q.EmitBatch(func(batch []unijoin.Pair) {
			for _, p := range batch {
				pairs = append(pairs, [2]uint32{p.Left, p.Right})
				if len(pairs) == s.batch {
					flushPairs(pairs)
					pairs = pairs[:0]
				}
			}
		})
	}
	start := time.Now()
	res, err := q.Run(ctx)
	if err != nil {
		return nil, nil, typed(err)
	}
	if len(pairs) > 0 {
		flushPairs(pairs)
	}
	elapsed := time.Since(start)
	s.metrics.observeJoin(alg.String(), elapsed, res.PartitionWall, res.SweepWall, streamTime)
	root := joinSpan(start, elapsed, res.PartitionWall, res.SweepWall, streamTime)
	root.SetAttr("left", req.Left).SetAttr("right", req.Right).
		SetAttr("algorithm", alg.String())
	return &client.JoinSummary{
		Left:          req.Left,
		Right:         req.Right,
		Algorithm:     alg.String(),
		Pairs:         res.Count(),
		LeftRecords:   left.Len(),
		RightRecords:  right.Len(),
		ElapsedMillis: float64(elapsed.Microseconds()) / 1000,
	}, root, nil
}

// Window runs one window query, streaming its records into out in
// batches of the configured size.
func (s *Server) Window(ctx context.Context, req client.WindowRequest, out *httpapi.Stream) (*client.WindowSummary, *obs.Span, error) {
	rel, ok := s.cat.Get(req.Relation)
	if !ok {
		return nil, nil, notFoundErr("relation", req.Relation)
	}
	if req.Window == nil {
		return nil, nil, badRequestErr(fmt.Errorf("window query needs a \"window\" rectangle"))
	}
	// Window queries always carry a rectangle, so they always feed the
	// x-histogram; the relation name is catalog-validated above.
	s.workload.ObserveQuery(req.Relation, "window")
	s.workload.ObserveWindow(req.Window.XLo, req.Window.XHi)
	// Pin once: the scan and the summary's Indexed field must describe
	// the same epoch.
	pv := rel.Pin()

	// In stripe mode only records whose left edge falls in the
	// stripe are reported — each record is owned by exactly one
	// shard, so a router's merged stream has no replicated
	// boundary-record duplicates — and the count must come from the
	// filtered emit path rather than WindowQuery's total.
	var owned int64
	var emit func(unijoin.Record)
	// Records accumulate in the kernel's own representation and go to
	// the stream per batch: the binary transport packs them directly,
	// with no float64 detour.
	var recs []unijoin.Record
	var streamTime time.Duration
	flushRecs := func() {
		s.metrics.recordsStreamed.Add(int64(len(recs)))
		t0 := time.Now()
		out.WriteRecords(recs)
		streamTime += time.Since(t0)
		recs = recs[:0]
	}
	if !req.CountOnly || s.stripe != nil {
		if !req.CountOnly {
			recs = make([]unijoin.Record, 0, s.batch)
		}
		emit = func(rec unijoin.Record) {
			if s.stripe != nil && !s.stripe.OwnsRecord(rec.Rect) {
				return
			}
			owned++
			if req.CountOnly {
				return
			}
			recs = append(recs, rec)
			if len(recs) == s.batch {
				flushRecs()
			}
		}
	}
	start := time.Now()
	n, err := pv.WindowQuery(ctx, toRect(*req.Window), emit)
	if err != nil {
		return nil, nil, typed(err)
	}
	if len(recs) > 0 {
		flushRecs()
	}
	if s.stripe != nil {
		n = owned
	}
	elapsed := time.Since(start)
	root := windowSpan(start, elapsed, streamTime)
	root.SetAttr("relation", req.Relation)
	return &client.WindowSummary{
		Relation:      req.Relation,
		Records:       n,
		Indexed:       pv.Indexed(),
		ElapsedMillis: float64(elapsed.Microseconds()) / 1000,
	}, root, nil
}

// Append adds records to a cataloged relation. The append is atomic:
// all records land in one new epoch, visible to every query started
// after it returns, invisible to queries already running. In stripe
// mode the shard keeps only the records overlapping its stripe,
// exactly the slice it would have loaded at startup, so a router
// fanning an append across a fleet reproduces the single-process
// state.
func (s *Server) Append(_ context.Context, name string, ins []client.RecordIn) (*client.AppendSummary, error) {
	rel, ok := s.cat.Get(name)
	if !ok {
		return nil, notFoundErr("append", name)
	}
	recs := make([]unijoin.Record, 0, len(ins))
	for i, in := range ins {
		rec := unijoin.Record{ID: unijoin.ID(in.ID), Rect: toRect(in.Rect)}
		if !rec.Rect.Valid() {
			return nil, badRequestErr(fmt.Errorf("record %d (id %d) has an invalid rectangle", i, in.ID))
		}
		if s.stripe == nil || s.stripe.Loads(rec.Rect) {
			recs = append(recs, rec)
		}
	}
	start := time.Now()
	res, err := rel.Append(recs)
	if err != nil {
		return nil, typed(err)
	}
	delta := rel.DeltaRecords()
	//lint:bounded name is catalog-validated above; cardinality is the relation count
	s.metrics.observeIngest(name, int64(res.Appended), time.Since(start).Seconds(), res.Compacted, delta)
	return &client.AppendSummary{
		Relation:     name,
		Appended:     int64(res.Appended),
		Records:      res.Total,
		Epoch:        res.Epoch,
		DeltaRecords: delta,
		Compacted:    res.Compacted,
	}, nil
}

// joinSpan assembles a join request's span tree from the phases the
// engine and the handler measured. Partition leads; the sweep and the
// stream both start when it ends (streaming happens from the sweep's
// emit callbacks, so the two overlap rather than chain).
func joinSpan(start time.Time, elapsed, partition, sweep, stream time.Duration) *obs.Span {
	root := &obs.Span{
		ID: obs.NewSpanID(), Name: "server.join",
		Start: start, Duration: elapsed,
	}
	root.Child("partition", 0, partition)
	root.Child("sweep", partition, sweep)
	root.Child("stream", partition, stream)
	return root
}

// windowSpan assembles a window request's span tree: the scan is
// everything that wasn't spent encoding/flushing, and the stream child
// interleaves it (emit callbacks run inside the scan), so both start
// at the root.
func windowSpan(start time.Time, elapsed, stream time.Duration) *obs.Span {
	root := &obs.Span{
		ID: obs.NewSpanID(), Name: "server.window",
		Start: start, Duration: elapsed,
	}
	root.Child("scan", 0, max(elapsed-stream, 0))
	root.Child("stream", 0, stream)
	return root
}

// relationInfo maps a cataloged relation to its wire description. An
// empty relation's MBR is the invalid ±Inf rectangle, which JSON
// cannot carry — it is reported as the zero rectangle instead.
func relationInfo(name string, rel *unijoin.Relation) client.RelationInfo {
	pv := rel.Pin()
	info := client.RelationInfo{
		Name:       name,
		Records:    pv.Len(),
		Indexed:    pv.Indexed(),
		DataBytes:  pv.DataBytes(),
		IndexBytes: pv.IndexBytes(),
	}
	if mbr := pv.MBR(); mbr.Valid() {
		info.MBR = fromRect(mbr)
	}
	return info
}

// typed gives an engine error its API class. Cancellations stay
// context errors (unijoin.ErrCanceled wraps context.Canceled), which
// the front answers as 504.
func typed(err error) error {
	var status int
	var code string
	switch {
	case errors.Is(err, unijoin.ErrNeedsIndex):
		status, code = http.StatusUnprocessableEntity, client.CodeNeedsIndex
	case errors.Is(err, unijoin.ErrNilRelation):
		status, code = http.StatusNotFound, client.CodeNotFound
	default:
		return err
	}
	return &client.APIError{Status: status, Code: code, Message: err.Error()}
}

// notFoundErr is the unknown-relation error.
func notFoundErr(side, name string) *client.APIError {
	return &client.APIError{
		Status: http.StatusNotFound, Code: client.CodeNotFound,
		Message: fmt.Sprintf("%s relation %q is not in the catalog", side, name),
	}
}

// badRequestErr wraps a request-shape problem.
func badRequestErr(err error) *client.APIError {
	return &client.APIError{
		Status: http.StatusBadRequest, Code: client.CodeBadRequest,
		Message: err.Error(),
	}
}

// toRect converts a wire rectangle to a normalized unijoin.Rect.
func toRect(r client.Rect) unijoin.Rect {
	return unijoin.NewRect(
		unijoin.Coord(r.XLo), unijoin.Coord(r.YLo),
		unijoin.Coord(r.XHi), unijoin.Coord(r.YHi),
	)
}

// fromRect converts a unijoin.Rect to its wire form.
func fromRect(r unijoin.Rect) client.Rect {
	return client.Rect{
		XLo: float64(r.XLo), YLo: float64(r.YLo),
		XHi: float64(r.XHi), YHi: float64(r.YHi),
	}
}
