package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unijoin"
	"unijoin/client"
)

// clockBase anchors nanotime, the monotonic clock every latency is
// read from.
var clockBase = time.Now()

func nanotime() int64 { return int64(time.Since(clockBase)) }

// mix is a workload's read traffic: the pattern of op kinds the
// closed-loop clients cycle through and the pools each kind draws
// from. Ops are numbered globally, so the sequence of ops sent is a
// function of the seed alone, whichever client sends each.
type mix struct {
	pattern []opKind
	pools   [numKinds][]op
	algs    [numKinds][]string
	clients int // closed-loop clients sending the sequence
	// lockstep makes the clients send in rounds: each takes the next
	// op, all send at once, and the round ends when every reply is in.
	// Which ops run side by side is then fixed by the sequence rather
	// than by timing.
	lockstep bool
	next     atomic.Int64
}

// nextOp returns the next op and whether a traced run asks the
// program to trace it. Tracing alternates from one round of the
// pattern to the next and flips its phase after each pass over a pool,
// so every kind, window and algorithm is sent both ways, interleaved
// in time.
func (m *mix) nextOp() (op, bool) {
	k := int(m.next.Add(1) - 1)
	kind := m.pattern[k%len(m.pattern)]
	round := k / len(m.pattern)
	pool := m.pools[kind]
	o := pool[round%len(pool)]
	if algs := m.algs[kind]; len(algs) > 0 && o.alg == "" {
		o.alg = algs[(round+round/len(pool))%len(algs)]
	}
	return o, (round+round/len(pool))%2 == 1
}

// appendPlan is a workload's open-loop writer: one batch every
// `every`, into rel, regardless of how long earlier batches took.
type appendPlan struct {
	rel     string
	every   time.Duration
	batches [][]unijoin.Record
	next    int // first batch not yet sent, across segments
	// serial sends each batch only after the previous one returned,
	// in a phase of its own with no reads beside it. Each batch is
	// still timed from when it was due, so a slow append is charged
	// to the batches queued behind it. Otherwise every batch gets its
	// own goroutine, beside the closed-loop readers.
	serial bool
}

// runner drives one system and collects every sample a run reports.
type runner struct {
	sys   system
	tr    *tracer
	layer string // the layer a read call enters: client or core
	// trace asks the program to trace every other op (nextOp picks
	// which) and splits latencies by it; only served systems can.
	trace bool

	lat [numKinds]series // ms, all ops
	// tracedLat and plainLat split a traced run's ops by whether they
	// asked for a trace, for the tracing-overhead ratio.
	tracedLat, plainLat [numKinds]series
	first               series // ms to first pair batch
	pairs               atomic.Int64
	joinMs              series
	late                series // open-loop lateness, ms

	// Program-reported phases (served joins).
	srvElapsed, srvPartition, srvSweep, srvStream, clientOver series
	legMax, legSkew, routerOver                               series

	attempted, failed, wrong atomic.Int64
	errMu                    sync.Mutex
	errs                     []string

	ackMu sync.Mutex
	acked []int // batch indexes the program acknowledged
}

func (r *runner) fail(format string, args ...any) {
	r.failed.Add(1)
	r.errMu.Lock()
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
	r.errMu.Unlock()
}

// check compares an outcome with the op's expected answer.
func (r *runner) check(o *op, got answer) bool {
	want := o.want
	if o.kind == opCount {
		got.sum, want.sum = 0, 0
	}
	ok := got == want
	if o.atLeast {
		ok = got.n >= want.n
	}
	if !ok {
		r.wrong.Add(1)
		r.fail("%s %s window=%v: got %d results (sum %x), want %d (sum %x)",
			kindNames[o.kind], o.alg, o.win, got.n, got.sum, want.n, want.sum)
	}
	return ok
}

// do sends one read and records its samples. traced asks the program
// for its trace; the benchmark's own span is recorded either way when
// the run is traced.
func (r *runner) do(ctx context.Context, o op, traced bool) {
	r.attempted.Add(1)
	opID := r.tr.newOp()
	start := nanotime()
	startT := time.Now()
	out, err := r.sys.read(ctx, &o, traced, start)
	ms := float64(nanotime()-start) / 1e6
	end := time.Now()
	callSpan := r.tr.record(opID, 0, r.layer, kindNames[o.kind]+" "+o.alg, startT, end)
	if err != nil {
		r.fail("%s %s: %v", kindNames[o.kind], o.alg, err)
		return
	}
	if !r.check(&o, out.got) {
		return
	}
	r.lat[o.kind].add(ms)
	if r.trace {
		if traced {
			r.tracedLat[o.kind].add(ms)
		} else {
			r.plainLat[o.kind].add(ms)
		}
	}
	if o.kind == opJoin {
		r.pairs.Add(out.got.n)
		r.joinMs.add(ms)
		if out.firstMs > 0 {
			r.first.add(out.firstMs)
		}
	}
	if sum := out.summary; sum != nil {
		r.srvElapsed.add(sum.ElapsedMillis)
		r.clientOver.add(ms - sum.ElapsedMillis)
		if sum.Trace != nil {
			r.srvPartition.add(sum.Trace.PartitionMillis)
			r.srvSweep.add(sum.Trace.SweepMillis)
			r.srvStream.add(sum.Trace.StreamMillis)
		}
		if traced && sum.Spans != nil {
			r.tr.graft(opID, callSpan, end, sum.Spans)
			r.legs(sum.Spans)
		}
	}
}

// legs reads a router's span tree: the scatter legs' spread and the
// time the router added beyond its slowest leg.
func (r *runner) legs(root *client.Span) {
	var legs []float64
	for _, c := range root.Children {
		if c.Name == "scatter" {
			legs = append(legs, c.DurationMillis)
		}
	}
	if len(legs) == 0 {
		return
	}
	sort.Float64s(legs)
	slowest := legs[len(legs)-1]
	r.legMax.add(slowest)
	if m := median(legs); m > 0 {
		r.legSkew.add(slowest / m)
	}
	r.routerOver.add(root.DurationMillis - slowest)
}

// closedLoop runs m's clients until the deadline. Each sends its next
// op as soon as its previous one returned, or, in lockstep, as soon as
// the round's last one did.
func (r *runner) closedLoop(ctx context.Context, m *mix, deadline time.Time) {
	var wg sync.WaitGroup
	if m.lockstep {
		for time.Now().Before(deadline) {
			ops := make([]op, m.clients)
			traced := make([]bool, m.clients)
			for i := range ops {
				ops[i], traced[i] = m.nextOp()
			}
			for i := range ops {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r.do(ctx, ops[i], r.trace && traced[i])
				}()
			}
			wg.Wait()
		}
		return
	}
	for range m.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o, traced := m.nextOp()
				r.do(ctx, o, r.trace && traced)
			}
		}()
	}
	wg.Wait()
}

// openLoop sends plan's batches on schedule until the deadline. Each
// append is timed from the moment it was due; lateness records how far
// behind schedule the generator itself ran.
func (r *runner) openLoop(ctx context.Context, plan *appendPlan, deadline time.Time) {
	var wg sync.WaitGroup
	start := time.Now()
	first := plan.next
	for j, batch := range plan.batches[first:] {
		i := first + j
		due := start.Add(time.Duration(j) * plan.every)
		if !due.Before(deadline) {
			break
		}
		plan.next = i + 1
		waitUntil(due)
		r.late.add(msSince(due, time.Now()))
		if plan.serial {
			r.appendOne(ctx, plan.rel, i, batch, due)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.appendOne(ctx, plan.rel, i, batch, due)
		}()
	}
	wg.Wait()
	sort.Ints(r.acked)
}

// spinMargin is how long before a due time the generator stops
// sleeping and spins.
const spinMargin = time.Millisecond

// waitUntil sleeps until spinMargin before t and spins the rest. A
// sleeping thread can wake well after its time on a loaded host, and
// an append timed from its due time would carry that delay.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// appendOne sends batch i and records its latency from due.
func (r *runner) appendOne(ctx context.Context, rel string, i int, batch []unijoin.Record, due time.Time) {
	r.attempted.Add(1)
	opID := r.tr.newOp()
	sent := time.Now()
	n, err := r.sys.appendRecs(ctx, rel, batch)
	done := time.Now()
	r.tr.record(opID, 0, r.layer, "append", sent, done)
	if err != nil {
		r.fail("append %d: %v", i, err)
		return
	}
	if n != int64(len(batch)) {
		r.wrong.Add(1)
		r.fail("append %d: %d of %d records acknowledged", i, n, len(batch))
		return
	}
	r.lat[opAppend].add(msSince(due, done))
	r.ackMu.Lock()
	r.acked = append(r.acked, i)
	r.ackMu.Unlock()
}

// run drives the closed-loop clients for d. A concurrent plan's
// writer runs beside them. A serial plan's writer takes appendShare of
// d, in writerPhases phases of its own, each followed by a slice of
// reads: a slow stretch of the host then lands on a share of the
// appends rather than on all of one phase's.
func (r *runner) run(ctx context.Context, m *mix, plan *appendPlan, d time.Duration) {
	if plan != nil && plan.serial {
		slice := float64(d / writerPhases)
		for range writerPhases {
			runtime.GC() // start the phase free of the reads' and suite's garbage
			r.openLoop(ctx, plan, time.Now().Add(time.Duration(slice*appendShare)))
			r.closedLoop(ctx, m, time.Now().Add(time.Duration(slice*(1-appendShare))))
		}
		return
	}
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	if plan != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.openLoop(ctx, plan, deadline)
		}()
	}
	r.closedLoop(ctx, m, deadline)
	wg.Wait()
}
