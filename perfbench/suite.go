package main

import (
	"context"
	"fmt"
	"time"

	"unijoin"
)

// suiteJoin is one join of the paper's algorithm suite: SSSJ, PBSM, PQ
// with two, one and no indexes, ST and BFRJ, all count-only. The
// "_raw" relations hold the same records without an index.
type suiteJoin struct {
	name        string
	left, right string
	alg         unijoin.Algorithm
}

var suiteJoins = []suiteJoin{
	{"sssj", "a_raw", "b_raw", unijoin.AlgSSSJ},
	{"pbsm", "a_raw", "b_raw", unijoin.AlgPBSM},
	{"pq", "a", "b", unijoin.AlgPQ},
	{"pq1", "a", "b_raw", unijoin.AlgPQ},
	{"pq0", "a_raw", "b_raw", unijoin.AlgPQ},
	{"st", "a", "b", unijoin.AlgST},
	{"bfrj", "a", "b", unijoin.AlgBFRJ},
}

// suiteRels are the relations the suite needs, indexed and raw.
func suiteRels(a, b []unijoin.Record) []relSpec {
	return []relSpec{
		{name: "a", recs: a, index: true, join: true},
		{name: "b", recs: b, index: true, join: true},
		{name: "a_raw", recs: a},
		{name: "b_raw", recs: b},
	}
}

// suitePass is one pass over the suite.
type suitePass struct {
	joinWall map[string]time.Duration // each Query.Run's wall time
	simIO    time.Duration            // Machine 3 observed I/O, summed
	pairs    int64
	results  map[string]*unijoin.Results
	// counts is the pass's exact-counter fingerprint: for every join
	// its pairs, page requests, reads and writes split sequential and
	// random, sort runs and passes, and sweep comparisons.
	counts string
}

// runSuite runs one pass on cat's workspace. Counters are reset before
// each join so every join starts with a cold disk head: with the
// workspace fresh from its set-up, the pass's counts then repeat
// exactly from run to run. memory and pool of 0 keep the library's
// defaults.
func runSuite(ctx context.Context, tr *tracer, cat *unijoin.Catalog, memory, pool int) (suitePass, error) {
	p := suitePass{results: make(map[string]*unijoin.Results), joinWall: make(map[string]time.Duration)}
	ws := cat.Workspace()
	op := tr.newOp()
	for _, sj := range suiteJoins {
		a, _ := cat.Get(sj.left)
		b, _ := cat.Get(sj.right)
		q := ws.Query(a, b).Algorithm(sj.alg).CountOnly()
		if memory > 0 {
			q.Memory(memory).BufferPool(pool)
		}
		ws.Store().ResetCounters()
		start := time.Now()
		res, err := q.Run(ctx)
		end := time.Now()
		tr.record(op, 0, "core", "Query.Run "+sj.name, start, end)
		p.joinWall[sj.name] = end.Sub(start)
		if err != nil {
			return p, fmt.Errorf("suite %s: %w", sj.name, err)
		}
		if len(p.results) == 0 {
			p.pairs = res.Count()
		} else if res.Count() != p.pairs {
			return p, fmt.Errorf("suite %s: %d pairs, sssj found %d", sj.name, res.Count(), p.pairs)
		}
		p.results[sj.name] = res
		p.simIO += res.ObservedIOTime(unijoin.Machine3)
		var runs, passes int
		for _, s := range res.SortStats {
			runs += s.Runs
			passes += s.Passes
		}
		p.counts += fmt.Sprintf("%s pairs=%d pages=%d logical=%d io={%s} sort=%d/%d cmp=%d\n",
			sj.name, res.Count(), res.PageRequests, res.LogicalRequests, res.IO, runs, passes, res.Sweep.Comparisons)
	}
	// Table 4: PQ over two indexes requests each tree page exactly once.
	a, _ := cat.Get("a")
	b, _ := cat.Get("b")
	if nodes := int64(a.IndexNodes() + b.IndexNodes()); p.results["pq"].PageRequests != nodes {
		return p, fmt.Errorf("pq made %d page requests, the trees have %d nodes", p.results["pq"].PageRequests, nodes)
	}
	return p, nil
}
