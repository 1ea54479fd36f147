package main

import (
	"context"
	"fmt"

	"unijoin"
	"unijoin/client"
)

// opKind is one class of operation a workload sends.
type opKind int

const (
	opJoin   opKind = iota // streamed join: every pair reaches the caller
	opCount                // count-only join
	opWindow               // window (selection) query, records streamed
	opAppend               // append batch
	numKinds
)

var kindNames = [numKinds]string{"join", "count", "window", "append"}

// answer is a result set reduced to its size and an order-independent
// checksum.
type answer struct {
	n   int64
	sum uint64
}

// op is one read operation and the answer it must produce.
type op struct {
	kind opKind
	alg  string
	rel  string        // window queries: the relation
	win  *unijoin.Rect // nil: the full join
	want answer
	// atLeast relaxes the check to "no fewer results than want" for
	// reads racing appends, whose exact answer depends on the epoch
	// the server pinned.
	atLeast bool
}

// outcome is what one read returned.
type outcome struct {
	got answer
	// firstMs is the time from the call to the first result batch
	// (streamed joins only; 0 when none arrived).
	firstMs float64
	// summary is the server's join summary (served joins only).
	summary *client.JoinSummary
}

// system executes operations against the program: through HTTP
// (served) or by calling the library directly (library).
type system interface {
	read(ctx context.Context, o *op, trace bool, start int64) (outcome, error)
	appendRecs(ctx context.Context, rel string, recs []unijoin.Record) (int64, error)
}

// served talks to a front over HTTP with the client package.
type served struct {
	cl *client.Client
}

func (s *served) read(ctx context.Context, o *op, trace bool, start int64) (outcome, error) {
	var out outcome
	switch o.kind {
	case opJoin, opCount:
		req := client.JoinRequest{Left: "a", Right: "b", Algorithm: o.alg, Trace: trace, CountOnly: o.kind == opCount}
		if o.win != nil {
			w := toClientRect(*o.win)
			req.Window = &w
		}
		sum, err := s.cl.JoinBatches(ctx, req, func(pairs [][2]uint32) {
			if out.got.n == 0 && len(pairs) > 0 {
				out.firstMs = float64(nanotime()-start) / 1e6
			}
			for _, p := range pairs {
				out.got.sum += pairKey(p[0], p[1])
			}
			out.got.n += int64(len(pairs))
		})
		if err != nil {
			return out, err
		}
		out.summary = sum
		if o.kind == opCount {
			out.got.n = sum.Pairs
		} else if sum.Pairs != out.got.n {
			return out, fmt.Errorf("summary says %d pairs, %d streamed", sum.Pairs, out.got.n)
		}
	case opWindow:
		w := toClientRect(*o.win)
		sum, err := s.cl.WindowBatches(ctx, client.WindowRequest{Relation: o.rel, Window: &w}, func(recs []client.RecordOut) {
			for _, r := range recs {
				out.got.sum += mix64(uint64(r.ID))
			}
			out.got.n += int64(len(recs))
		})
		if err != nil {
			return out, err
		}
		if sum.Records != out.got.n {
			return out, fmt.Errorf("summary says %d records, %d streamed", sum.Records, out.got.n)
		}
	}
	return out, nil
}

func (s *served) appendRecs(ctx context.Context, rel string, recs []unijoin.Record) (int64, error) {
	sum, err := s.cl.AppendRecords(ctx, rel, toRecordIn(recs))
	if err != nil {
		return 0, err
	}
	return sum.Appended, nil
}

// library calls the unijoin library in-process. Joins are a × b, as
// on the served fronts; memory and poolSize of 0 keep the library's
// budgets.
type library struct {
	cat      *unijoin.Catalog
	memory   int
	poolSize int
}

func (l *library) rel(name string) (*unijoin.Relation, error) {
	r, ok := l.cat.Get(name)
	if !ok {
		return nil, fmt.Errorf("no relation %q", name)
	}
	return r, nil
}

func (l *library) read(ctx context.Context, o *op, _ bool, start int64) (outcome, error) {
	var out outcome
	switch o.kind {
	case opJoin, opCount:
		a, err := l.rel("a")
		if err != nil {
			return out, err
		}
		b, err := l.rel("b")
		if err != nil {
			return out, err
		}
		alg, err := unijoin.ParseAlgorithm(o.alg)
		if err != nil {
			return out, err
		}
		q := l.cat.Workspace().Query(a, b).Algorithm(alg)
		if l.memory > 0 {
			q.Memory(l.memory).BufferPool(l.poolSize)
		}
		if o.win != nil {
			q.Window(*o.win)
		}
		if o.kind == opCount {
			q.CountOnly()
		} else {
			// Emit, not EmitBatch: a library caller streaming pairs sees
			// each one as the join finds it, while EmitBatch holds the
			// first 8192 back, which would make the first-pair time jump
			// with whether a window yields more pairs than that.
			q.Emit(func(p unijoin.Pair) {
				if out.got.n == 0 {
					out.firstMs = float64(nanotime()-start) / 1e6
				}
				out.got.sum += pairKey(p.Left, p.Right)
				out.got.n++
			})
		}
		res, err := q.Run(ctx)
		if err != nil {
			return out, err
		}
		if o.kind == opCount {
			out.got.n = res.Count()
		} else if res.Count() != out.got.n {
			return out, fmt.Errorf("result says %d pairs, %d emitted", res.Count(), out.got.n)
		}
	case opWindow:
		r, err := l.rel(o.rel)
		if err != nil {
			return out, err
		}
		n, err := r.WindowQuery(ctx, *o.win, func(rec unijoin.Record) { out.got.sum += mix64(uint64(rec.ID)) })
		if err != nil {
			return out, err
		}
		out.got.n = n
	}
	return out, nil
}

func (l *library) appendRecs(_ context.Context, rel string, recs []unijoin.Record) (int64, error) {
	r, err := l.rel(rel)
	if err != nil {
		return 0, err
	}
	res, err := r.Append(recs)
	return int64(res.Appended), err
}
