package unijoin

import (
	"iter"

	"unijoin/internal/core"
	"unijoin/internal/parallel"
)

// JoinResult is the accounting of one join: pair count, I/O and
// memory statistics, and per-machine cost reports.
type JoinResult struct {
	core.Result
	// Decision is set for AlgAuto: what the planner chose and why.
	Decision *core.Decision
}

// Results is the outcome of Query.Run: the full JoinResult accounting
// (promoted, so res.IO, res.HostCPU, res.ObservedTotal(m), ... read as
// before) plus streaming-friendly access to the result pairs.
//
// The embedded pair *count* is shadowed by the Pairs iterator method;
// read it as Count() (or res.JoinResult.Pairs).
type Results struct {
	JoinResult

	// Parallel is the parallel engine's wall-clock report, set only
	// when the query ran AlgParallel.
	Parallel *parallel.Report

	collected bool
	pairs     []Pair
}

// Count returns the number of result pairs — the quantity the paper's
// tables report. It is always set, whether or not pairs were
// collected or streamed.
func (r *Results) Count() int64 { return r.JoinResult.Pairs }

// Collected reports whether the query buffered its result pairs for
// iteration with Pairs. Queries run with Emit, EmitBatch, or
// CountOnly stream or drop their pairs instead and yield an empty
// iterator.
func (r *Results) Collected() bool { return r.collected }

// Pairs returns a range-over-func iterator over the result pairs, in
// the deterministic order the join reported them:
//
//	res, _ := ws.Query(a, b).Run(ctx)
//	for p := range res.Pairs() {
//		fmt.Println(p.Left, p.Right)
//	}
//
// Pairs are available when the query collected them (the default when
// no Emit/EmitBatch callback and no CountOnly option was given); see
// Collected.
func (r *Results) Pairs() iter.Seq[Pair] {
	return func(yield func(Pair) bool) {
		for _, p := range r.pairs {
			if !yield(p) {
				return
			}
		}
	}
}

// PairSlice returns the collected pairs as a slice (nil when the
// query did not collect). The slice is owned by the Results; callers
// must not modify it.
func (r *Results) PairSlice() []Pair { return r.pairs }
