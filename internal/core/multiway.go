package core

import (
	"context"
	"fmt"

	"unijoin/internal/geom"
	"unijoin/internal/sweep"
)

// MultiwayResult reports a k-way intersection join.
type MultiwayResult struct {
	Tuples       int64    // result tuples (k-way intersections)
	Stages       []Result // one Result per pairwise stage
	Intermediate []int64  // intermediate cardinality after each stage
}

// MultiwayPQ computes the k-way intersection join of the given inputs
// (k >= 2): all tuples (r1, ..., rk), one record per input, whose
// rectangles have a common intersection. emit receives the IDs in
// input order.
//
// As described in Section 4 of the paper, the output of a two-way PQ
// join is fed into another join with the next input: a pair is emitted
// by the sweep exactly when the later of its two rectangles arrives,
// so the stream of pairwise intersections is itself sorted by lower y
// and can enter the next sweep directly, with no intermediate sort.
// The intermediate tuples are materialized (the paper pipelines them;
// the ID table needed to reconstruct tuples is the same size, so the
// memory asymptotics are unchanged and the I/O is identical: none).
//
// The context threads through every pipeline stage: each stage's sort,
// scan, and sweep polls it, so canceling the context aborts the whole
// multiway pipeline at the stage it is in.
func MultiwayPQ(ctx context.Context, opts Options, inputs []Input, emit func(ids []geom.ID)) (MultiwayResult, error) {
	ctx = orBG(ctx)
	var mres MultiwayResult
	o, err := opts.withDefaults()
	if err != nil {
		return mres, err
	}
	if len(inputs) < 2 {
		return mres, fmt.Errorf("core: multiway join needs at least 2 inputs, got %d", len(inputs))
	}
	if o.Owner != nil {
		return mres, fmt.Errorf("core: multiway join takes no owner range")
	}

	// current holds the running intersection tuples: rectangle plus the
	// IDs contributing to it. It is y-sorted by construction.
	type tuple struct {
		rect geom.Rect
		ids  []geom.ID
	}
	var current []tuple

	// Stage 1: inputs[0] x inputs[1] through the standard PQ join.
	// Pair callbacks are not meaningful mid-pipeline, so the stages run
	// without them; tuples are collected through the record callback.
	stageOpts := o
	stageOpts.Emit = nil
	stageOpts.EmitBatch = nil
	res1, err := pqCollect(ctx, stageOpts, inputs[0], inputs[1], func(ra, rb geom.Record) {
		in, ok := ra.Rect.Intersection(rb.Rect)
		if !ok {
			return
		}
		current = append(current, tuple{rect: in, ids: []geom.ID{ra.ID, rb.ID}})
	})
	if err != nil {
		return mres, err
	}
	mres.Stages = append(mres.Stages, res1)
	mres.Intermediate = append(mres.Intermediate, int64(len(current)))

	// Later stages: intermediate tuples (already y-sorted) against the
	// next input.
	for stage := 2; stage < len(inputs); stage++ {
		if err := ctx.Err(); err != nil {
			return mres, wrapCanceled(err)
		}
		recs := make([]geom.Record, len(current))
		for i, tp := range current {
			recs[i] = geom.Record{Rect: tp.rect, ID: geom.ID(i)}
		}
		prev := current
		var next []tuple
		stageRes, err := runStage(ctx, stageOpts, recs, inputs[stage], func(ri geom.Record, rb geom.Record) {
			in, ok := ri.Rect.Intersection(rb.Rect)
			if !ok {
				return
			}
			base := prev[ri.ID].ids
			ids := make([]geom.ID, len(base)+1)
			copy(ids, base)
			ids[len(base)] = rb.ID
			next = append(next, tuple{rect: in, ids: ids})
		})
		if err != nil {
			return mres, err
		}
		mres.Stages = append(mres.Stages, stageRes)
		current = next
		mres.Intermediate = append(mres.Intermediate, int64(len(current)))
	}

	mres.Tuples = int64(len(current))
	if emit != nil {
		for _, tp := range current {
			emit(tp.ids)
		}
	}
	return mres, nil
}

// pqCollect is PQ with a record-pair callback instead of an ID-pair
// callback (the multiway stages need the rectangles).
func pqCollect(ctx context.Context, o Options, a, b Input, emit func(ra, rb geom.Record)) (Result, error) {
	return run(ctx, o, "PQ", func(o Options, res *Result) error {
		sideA, err := pqSource(ctx, o, a, b)
		if err != nil {
			return err
		}
		defer sideA.release()
		sideB, err := pqSource(ctx, o, b, a)
		if err != nil {
			return err
		}
		defer sideB.release()
		st, err := sweep.Join(ctx, sideA.src, sideB.src, o.newStructure(), o.newStructure(), emit)
		if err != nil {
			return err
		}
		res.Pairs = st.Pairs
		res.Sweep = st
		res.SweepMaxBytes = st.MaxBytes
		for _, side := range []pqSide{sideA, sideB} {
			if side.scanner != nil {
				res.ScannerMaxBytes += side.scanner.MaxBytes()
				res.PageRequests += side.scanner.PagesRead()
			}
		}
		return nil
	})
}

// runStage joins an in-memory y-sorted intermediate slice against one
// more input.
func runStage(ctx context.Context, o Options, intermediate []geom.Record, in Input, emit func(ri, rb geom.Record)) (Result, error) {
	return run(ctx, o, "PQ-stage", func(o Options, res *Result) error {
		side, err := pqSource(ctx, o, in, Input{})
		if err != nil {
			return err
		}
		defer side.release()
		st, err := sweep.Join(ctx, sweep.NewSliceSource(intermediate), side.src,
			o.newStructure(), o.newStructure(), emit)
		if err != nil {
			return err
		}
		res.Pairs = st.Pairs
		res.Sweep = st
		res.SweepMaxBytes = st.MaxBytes
		if side.scanner != nil {
			res.ScannerMaxBytes = side.scanner.MaxBytes()
			res.PageRequests = side.scanner.PagesRead()
		}
		return nil
	})
}
