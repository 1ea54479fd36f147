package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/datagen"
	"unijoin/internal/tiger"
)

// served workloads' shape. Their why, and the layers each loads or
// bypasses, are recorded in BENCHMARK.json.
type servedSpec struct {
	shards  int  // 0: one direct sjserved; k: a k-shard router fleet
	binary  bool // negotiate internal/wire frames; else NDJSON
	clients int  // closed-loop readers
	nA, nB  int  // joined relation sizes
	pattern []opKind
	algs    [numKinds][]string
	// lockstep sends the clients' ops in rounds (see mix).
	lockstep bool
	// countFull makes count ops full joins (one per algorithm) instead
	// of windowed ones.
	countFull bool
	// appendRel is where the open-loop writer appends: "s", a scratch
	// relation no read touches, in phases of their own between reads,
	// or "a", the joined relation itself, beside the reads.
	appendRel   string
	appendSize  int
	appendEvery time.Duration
}

var servedWorkloads = map[string]servedSpec{
	"stream-direct": {
		shards: 0, binary: true, clients: 2, nA: 100_000, nB: 60_000,
		pattern:   []opKind{opJoin, opWindow, opCount, opWindow},
		algs:      [numKinds][]string{opJoin: fiveAlgs, opCount: fiveAlgs},
		appendRel: "s", appendSize: 100, appendEvery: scratchEvery,
	},
	"routed-ndjson": {
		shards: 3, binary: false, clients: 2, nA: 100_000, nB: 60_000,
		pattern: []opKind{opCount, opWindow, opJoin, opWindow},
		// A full join takes both cores for about 270 ms. Free-running,
		// a streamed join's latency depended on whether the other
		// client's full join overlapped it, and its median over the few
		// joins a run completes jumped from run to run. In lockstep each
		// count-only join and each streamed join runs beside a window
		// query, every run.
		lockstep: true,
		// Streamed joins run PQ only: the router's relay and NDJSON
		// re-encoding are the subject here, and one algorithm keeps the
		// joins in one latency cluster.
		algs:      [numKinds][]string{opJoin: {"PQ"}, opCount: fiveAlgs},
		countFull: true,
		appendRel: "s", appendSize: 100, appendEvery: scratchEvery,
	},
	"ingest-mixed": {
		shards: 0, binary: true, clients: 1, nA: 40_000, nB: 24_000,
		pattern: []opKind{opCount, opWindow, opCount, opWindow, opJoin},
		// The reader joins with PQ, which reads the R-tree the writer
		// inserts into. ST, SSSJ and the parallel engine are measured
		// on stream-direct: the parallel engine takes both cores at
		// once, and beside the writer the appends' tail would depend on
		// whether one was running.
		algs:      [numKinds][]string{opJoin: {"PQ"}, opCount: {"PQ"}},
		appendRel: "a", appendSize: 125, appendEvery: 40 * time.Millisecond,
	},
}

// fiveAlgs is the algorithm cycle of served joins. Latency splits
// into one cluster per algorithm; with five equal slots the cluster
// edges fall on multiples of 20%, so the reported p50 and p70 always
// sit inside a cluster, never on an edge where they would jump from
// run to run.
var fiveAlgs = []string{"PQ", "ST", "SSSJ", "parallel", "PQ"}

const (
	joinPool   = 16   // distinct join windows (count-only joins share them)
	windowPool = 48   // distinct window-query windows
	scratchN   = 2000 // records in the scratch relation
	setupsMin  = 9    // served set-ups per run; setup_s is their median
	passesMin  = 3    // paper-sim set-ups and suite passes per run
	// segments is how many slices a serving workload's timed loop is
	// cut into, with one suite pass on its in-process reference before
	// each; batch_join_s is taken over those passes.
	segments  = 3
	finalWins = 8   // windows re-checked exactly after an ingest run
	probeWins = 12  // windows the traced run's layer probe joins
	maxLateMs = 250 // open-loop lateness p99 beyond which a run is invalid
	// appendShare is the part of each segment that a scratch writer's
	// append phases take, and writerPhases how many there are.
	appendShare  = 0.2
	writerPhases = 4
	// scratchEvery is the scratch writer's schedule. It is several
	// times an append's service time alone, so the phase measures the
	// append path rather than a queue.
	scratchEvery = 10 * time.Millisecond
	// paperEvery is the same for paper-sim's in-process appends.
	paperEvery = 5 * time.Millisecond
	// paperScale shrinks the paper's DISK1 extract to 603,084 x 116,190
	// records; the memory and buffer-pool budgets scale with it.
	paperScale = 0.1
)

// outcomeOf is everything a run measured, before it is turned into
// metrics.
type outcomeOf struct {
	r        *runner
	setups   series // s
	passes   []suitePass
	datagenS float64
	loadMs   series
	buildMs  series
	nodes    int
	compacts int64
	replay   *ingestReplay
	probe    layerProbe
	parallel *unijoin.Results
	parMs    float64
	replicas int64
	self     map[string]float64
}

// expect runs op against the reference library and stores the answer
// as the op's expected one.
func expect(ctx context.Context, ref system, o *op, alg string) error {
	q := *o
	q.alg = alg
	out, err := ref.read(ctx, &q, false, nanotime())
	if err != nil {
		return fmt.Errorf("reference %s: %w", kindNames[o.kind], err)
	}
	o.want = out.got
	return nil
}

// readPools builds the op pools over the given windows, with every
// expected answer computed by ref. Joins and count-only joins share
// the join windows.
func readPools(ctx context.Context, ref system, joinWins, winWins []unijoin.Rect, countFull bool, fullPairs int64, countAlgs []string) ([numKinds][]op, error) {
	var pools [numKinds][]op
	for i := range joinWins {
		o := op{kind: opJoin, win: &joinWins[i]}
		if err := expect(ctx, ref, &o, "PQ"); err != nil {
			return pools, err
		}
		pools[opJoin] = append(pools[opJoin], o)
		if !countFull {
			c := o
			c.kind = opCount
			pools[opCount] = append(pools[opCount], c)
		}
	}
	if countFull {
		for _, alg := range countAlgs {
			pools[opCount] = append(pools[opCount], op{kind: opCount, alg: alg, want: answer{n: fullPairs}})
		}
	}
	for i := range winWins {
		o := op{kind: opWindow, rel: "a", win: &winWins[i]}
		if err := expect(ctx, ref, &o, ""); err != nil {
			return pools, err
		}
		pools[opWindow] = append(pools[opWindow], o)
	}
	return pools, nil
}

// batchesFor pre-generates an open-loop writer's batches for d of
// writing, with IDs continuing after firstID.
func batchesFor(seed int64, d, every time.Duration, size int, firstID uint32, u unijoin.Rect, ext float64) [][]unijoin.Record {
	n := int(d/every) + segments + 2
	out := make([][]unijoin.Record, n)
	for i := range out {
		out[i] = appendBatch(seed, 20, i, size, firstID, u, ext)
	}
	return out
}

// warmUp sends one round of the pattern unmeasured, so lazy state
// (connections, pooled buffers, cached samples) exists before timing.
func warmUp(ctx context.Context, sys system, m *mix) error {
	w := &runner{sys: sys}
	for range m.pattern {
		o, _ := m.nextOp()
		w.do(ctx, o, false)
	}
	if w.failed.Load() > 0 {
		return fmt.Errorf("warm-up: %s", w.errs[0])
	}
	return nil
}

func runServed(ctx context.Context, w servedSpec, seed int64, d time.Duration, tr *tracer) (*outcomeOf, error) {
	res := &outcomeOf{}
	t0 := time.Now()
	a, b := uniformPair(seed, w.nA, w.nB)
	s := datagen.Uniform(subSeed(seed, 5), scratchN, refUniverse, refExtent)
	joinWins := seededWindows(seed, 10, joinPool, refUniverse, 100, 300)
	winWins := seededWindows(seed, 11, windowPool, refUniverse, 100, 300)
	firstID := uint32(scratchN)
	if w.appendRel == "a" {
		firstID = uint32(w.nA)
	}
	plan := &appendPlan{rel: w.appendRel, every: w.appendEvery, serial: w.appendRel == "s"}
	writing := d
	if plan.serial {
		writing = time.Duration(float64(d) * appendShare)
	}
	plan.batches = batchesFor(seed, writing, w.appendEvery, w.appendSize, firstID, refUniverse, refExtent)
	res.datagenS = time.Since(t0).Seconds()
	tr.record(tr.newOp(), 0, "bench", "datagen", t0, time.Now())

	// The in-process reference: the suite pass and every expected answer.
	var cost setupCost
	ref, err := loadCatalog(tr, tr.newOp(), refUniverse, nil, append(suiteRels(a, b), relSpec{name: "s", recs: s}), &cost)
	if err != nil {
		return nil, err
	}
	if err := res.suitePass(ctx, tr, ref); err != nil {
		return nil, err
	}
	pass := res.passes[0]
	refSys := &library{cat: ref}
	pools, err := readPools(ctx, refSys, joinWins, winWins, w.countFull, pass.pairs, w.algs[opCount])
	if err != nil {
		return nil, err
	}
	if w.appendRel == "a" {
		for k := range pools {
			for i := range pools[k] {
				pools[k][i].atLeast = true
			}
		}
	}
	m := &mix{pattern: w.pattern, pools: pools, algs: w.algs, clients: w.clients, lockstep: w.lockstep}

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	defer hc.CloseIdleConnections()
	rels := []relSpec{
		{name: "a", recs: a, index: true, join: true},
		{name: "b", recs: b, index: true, join: true},
		{name: "s", recs: s},
	}
	var f *fleet
	for i := 0; i < setupsMin; i++ {
		if f != nil {
			f.close()
		}
		var took time.Duration
		runtime.GC() // charge the set-up none of the benchmark's garbage
		f, took, cost, err = bootFleet(tr, hc, rels, w.shards)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setups.add(took.Seconds())
		res.loadMs.add(cost.loadMs)
		res.buildMs.add(cost.buildMs)
	}
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	for _, cat := range f.cats {
		for _, name := range []string{"a", "b"} {
			rel, _ := cat.Get(name)
			res.nodes += rel.IndexNodes()
		}
	}
	cl := client.New(f.url, hc)
	cl.PreferBinary = w.binary
	sys := &served{cl: cl}
	if err := warmUp(ctx, sys, m); err != nil {
		return nil, err
	}

	// The timed loop runs in segments with a suite pass between them,
	// so a slow stretch of the machine lands on a share of every
	// metric's samples rather than on all of one metric's. Inside each
	// segment a scratch writer's append phases alternate with the reads.
	r := &runner{sys: sys, tr: tr, layer: "client", trace: tr != nil}
	res.r = r
	for i := range segments {
		if i > 0 {
			if err := res.suitePass(ctx, tr, ref); err != nil {
				return nil, err
			}
		}
		r.run(ctx, m, plan, d/segments)
	}
	for _, cat := range f.cats {
		rel, _ := cat.Get(w.appendRel)
		res.compacts += rel.Compactions()
	}
	if tr != nil && w.appendRel != "a" {
		// Records the front reports beyond the relations' sizes: the
		// boundary replicas a routed summary counts once per shard.
		r.attempted.Add(1)
		sum, err := cl.JoinCount(ctx, client.JoinRequest{Left: "a", Right: "b"})
		if err != nil {
			r.fail("replica count: %v", err)
		} else {
			res.replicas = sum.LeftRecords + sum.RightRecords - int64(w.nA+w.nB)
		}
	}

	// Read the final answers, then free the fleet before the replay
	// below builds its own copy of the grown relation.
	var finals []finalRead
	if w.appendRel == "a" {
		finals = readFinals(ctx, r, sys, winWins[:finalWins])
	}
	f.close()
	f = nil

	// Replay the acknowledged appends in-process: the ingest layer's
	// own cost, and for ingest-mixed the reference the final answers
	// must match.
	if w.appendRel == "a" || tr != nil {
		base, others, index := s, []relSpec(nil), false
		if w.appendRel == "a" {
			base, others, index = a, []relSpec{{name: "b", recs: b, index: true}}, true
		}
		if res.replay, err = replayAppends(tr, refUniverse, w.appendRel, base, index, others, plan.batches, r.acked); err != nil {
			return nil, err
		}
	}
	if w.appendRel == "a" {
		checkFinals(ctx, r, &library{cat: res.replay.cat}, finals)
	}

	if tr != nil {
		if res.probe, err = probeLayers(ctx, tr, ref, joinWins[:probeWins], 0, 0); err != nil {
			return nil, err
		}
		if err := runParallel(ctx, tr, ref, res, 0, 0); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// finalRead is one read sent after every append landed, with what
// the server answered.
type finalRead struct {
	op  op
	got answer
	err error
}

// readFinals reads the full join's count and a set of windows from the
// served relation once the writer has stopped. They count as attempted
// ops but add no latency samples.
func readFinals(ctx context.Context, r *runner, sys system, wins []unijoin.Rect) []finalRead {
	ops := []op{{kind: opCount, alg: "PQ"}}
	for i := range wins {
		ops = append(ops, op{kind: opWindow, rel: "a", win: &wins[i]})
	}
	out := make([]finalRead, len(ops))
	for i, o := range ops {
		r.attempted.Add(1)
		res, err := sys.read(ctx, &o, false, nanotime())
		out[i] = finalRead{op: o, got: res.got, err: err}
	}
	return out
}

// checkFinals compares the final answers with the in-process replay of
// base plus all acknowledged appends.
func checkFinals(ctx context.Context, r *runner, ref system, finals []finalRead) {
	for _, f := range finals {
		if f.err != nil {
			r.fail("final %s: %v", kindNames[f.op.kind], f.err)
			continue
		}
		if err := expect(ctx, ref, &f.op, f.op.alg); err != nil {
			r.fail("final check: %v", err)
			continue
		}
		r.check(&f.op, f.got)
	}
}

// suitePass runs one suite pass on a serving workload's reference
// catalog. Passes after the first reuse its workspace, so only the
// first one's counters are exact; every pass's wall time counts.
func (res *outcomeOf) suitePass(ctx context.Context, tr *tracer, ref *unijoin.Catalog) error {
	runtime.GC()
	pass, err := runSuite(ctx, tr, ref, 0, 0)
	if err != nil {
		return err
	}
	if len(res.passes) > 0 && pass.pairs != res.passes[0].pairs {
		return fmt.Errorf("suite passes disagree: %d and %d pairs", res.passes[0].pairs, pass.pairs)
	}
	res.passes = append(res.passes, pass)
	return nil
}

// runParallel times one full count-only join on the parallel engine.
func runParallel(ctx context.Context, tr *tracer, cat *unijoin.Catalog, res *outcomeOf, memory, pool int) error {
	a, _ := cat.Get("a")
	b, _ := cat.Get("b")
	q := cat.Workspace().Query(a, b).Algorithm(unijoin.AlgParallel).CountOnly()
	if memory > 0 {
		q.Memory(memory).BufferPool(pool)
	}
	start := time.Now()
	pr, err := q.Run(ctx)
	end := time.Now()
	tr.record(tr.newOp(), 0, "parallel", "Query.Run parallel", start, end)
	if err != nil {
		return err
	}
	if pr.Count() != res.passes[0].pairs {
		return fmt.Errorf("parallel found %d pairs, the suite %d", pr.Count(), res.passes[0].pairs)
	}
	res.parallel, res.parMs = pr, msSince(start, end)
	return nil
}

// runPaperSim is the library-only workload: rounds of a fresh set-up
// of the TIGER-like DISK1 data, one pass of the algorithm suite and a
// probe slice of append phases and in-process reads, for at least
// passesMin rounds and d.
func runPaperSim(ctx context.Context, scale float64, seed int64, d time.Duration, tr *tracer) (*outcomeOf, error) {
	res := &outcomeOf{}
	t0 := time.Now()
	region := tiger.Disk1.Region
	roads, hydro, fullRoads := paperSet(seed, scale)
	s := datagen.Uniform(subSeed(seed, 5), scratchN, region, 5)
	joinWins := paperWindows(fullRoads, 10, windowPool, 100, 300)
	winWins := paperWindows(fullRoads, 11, windowPool, 400, 1000)
	// Each round is a fresh set-up, one suite pass, then a probe slice
	// of append phases alone, each followed by in-process reads.
	probeSlice := d / 8
	writing := time.Duration(float64(d+passesMin*probeSlice) * appendShare)
	plan := &appendPlan{rel: "s", every: paperEvery, serial: true,
		batches: batchesFor(seed, writing, paperEvery, 100, scratchN, region, 5)}
	res.datagenS = time.Since(t0).Seconds()
	tr.record(tr.newOp(), 0, "bench", "datagen", t0, time.Now())

	budget := tiger.Config{Scale: scale}
	mem, pool := budget.MemoryBytes(), budget.BufferPoolBytes()
	rels := append(suiteRels(roads, hydro), relSpec{name: "s", recs: s})
	m := mix{pattern: []opKind{opJoin, opCount, opWindow, opWindow}, clients: 1,
		algs: [numKinds][]string{opJoin: {"PQ"}, opCount: {"PQ"}}}
	lib := &library{memory: mem, poolSize: pool}
	r := &runner{sys: lib, tr: tr, layer: "core"}
	res.r = r
	end := time.Now().Add(d)
	for i := 0; i < passesMin || time.Now().Before(end); i++ {
		var cost setupCost
		start := time.Now()
		var err error
		lib.cat = nil
		runtime.GC() // drop the previous set-up before timing the next
		if lib.cat, err = loadCatalog(tr, tr.newOp(), region, nil, rels, &cost); err != nil {
			return nil, err
		}
		res.setups.add(time.Since(start).Seconds())
		res.loadMs.add(cost.loadMs)
		res.buildMs.add(cost.buildMs)
		runtime.GC()
		pass, err := runSuite(ctx, tr, lib.cat, mem, pool)
		if err != nil {
			return nil, err
		}
		if i > 0 && pass.counts != res.passes[0].counts {
			return nil, fmt.Errorf("paper-sim counters did not repeat on a fresh workspace:\n%s---\n%s", res.passes[0].counts, pass.counts)
		}
		res.passes = append(res.passes, pass)
		if i == 0 {
			if m.pools, err = readPools(ctx, lib, joinWins, winWins, false, 0, nil); err != nil {
				return nil, err
			}
			if err := warmUp(ctx, lib, &m); err != nil {
				return nil, err
			}
		}
		r.run(ctx, &m, plan, probeSlice)
		sRel, _ := lib.cat.Get("s")
		res.compacts += sRel.Compactions()
	}
	a, _ := lib.cat.Get("a")
	b, _ := lib.cat.Get("b")
	res.nodes = a.IndexNodes() + b.IndexNodes()

	if tr != nil {
		var err error
		if res.replay, err = replayAppends(tr, region, "s", s, false, nil, plan.batches, r.acked); err != nil {
			return nil, err
		}
		if res.probe, err = probeLayers(ctx, tr, lib.cat, joinWins[:probeWins], mem, pool); err != nil {
			return nil, err
		}
		if err := runParallel(ctx, tr, lib.cat, res, mem, pool); err != nil {
			return nil, err
		}
	}
	return res, nil
}
