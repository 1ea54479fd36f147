package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"unijoin"
	"unijoin/internal/tiger"
)

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{100, 90, 10}, {99, 90, 9}, {34, 70, 10}, {33, 70, 9}, {250, 90, 25}, {0, 90, 0},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	// Every read tail needs at most 35 samples for 10 beyond.
	for k, p := range tailPct {
		if beyond(35, float64(p)) < minBeyondTail && k != int(opAppend) {
			t.Errorf("%s tail p%d needs more than 35 samples", kindNames[k], p)
		}
	}
	if beyond(250, float64(tailPct[opAppend])) < minBeyondTail {
		t.Errorf("append tail p%d needs more than 250 samples", tailPct[opAppend])
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	if p := percentile(xs, 80); p != 4 {
		t.Errorf("p80 = %g", p)
	}
	if p := percentile(xs, 100); p != 5 {
		t.Errorf("p100 = %g", p)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	gen := func(seed int64) [32]byte {
		a, b := uniformPair(seed, 3000, 2000)
		roads, hydro, _ := paperSet(seed, 0.002)
		var wins []unijoin.Record
		for _, w := range seededWindows(seed, 10, 20, refUniverse, 100, 300) {
			wins = append(wins, unijoin.Record{Rect: w})
		}
		return digest(a, b, roads, hydro, wins, appendBatch(seed, 20, 3, 50, 3000, refUniverse, refExtent))
	}
	if gen(7) != gen(7) {
		t.Fatal("seed 7 produced different inputs on two calls")
	}
	if gen(7) == gen(8) {
		t.Fatal("seeds 7 and 8 produced identical inputs")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "client", Start: 0, End: 10},
		{ID: 2, Parent: 1, Layer: "server", Start: 2, End: 8},
		{ID: 3, Parent: 2, Layer: "core", Start: 3, End: 5},
		{ID: 4, Parent: 2, Layer: "core", Start: 4, End: 7},
	}
	got := selfTimes(spans)
	want := map[string]float64{"client": 4, "server": 2, "core": 5}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %g, want %g", k, got[k], v)
		}
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (e2e, layer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layer = append(layer, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	return e2e, layer
}

func names(m metrics) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: reported %d metrics %v, BENCHMARK.json declares %d %v", what, len(got), got, len(want), want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: reported %q where BENCHMARK.json declares %q", what, got[i], want[i])
		}
	}
}

// TestSmokeEveryWorkload runs every workload at a tiny scale, untraced
// and traced, with every answer check on, and checks that each run
// reports exactly the metrics BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layer := benchmarkNames(t)
	ctx := context.Background()
	const d = 1500 * time.Millisecond
	run := func(name string, traced bool) *outcomeOf {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		var o *outcomeOf
		var err error
		if spec, ok := servedWorkloads[name]; ok {
			spec.nA, spec.nB = spec.nA/20, spec.nB/20
			o, err = runServed(ctx, spec, 3, d, tr)
		} else {
			o, err = runPaperSim(ctx, 0.002, 3, d, tr)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f := o.r.failed.Load(); f > 0 {
			t.Fatalf("%s: %d failed ops: %v", name, f, o.r.errs)
		}
		if o.r.attempted.Load() == 0 {
			t.Fatalf("%s: no ops attempted", name)
		}
		if tr != nil {
			o.self = selfTimes(tr.spans)
		}
		return o
	}
	for _, name := range []string{"stream-direct", "routed-ndjson", "ingest-mixed", "paper-sim"} {
		t.Run(name, func(t *testing.T) {
			o := run(name, false)
			sameNames(t, "end to end", names(endToEnd(o, o.r.attempted.Load(), 0)), e2e)
			for _, k := range []opKind{opJoin, opCount, opWindow, opAppend} {
				if o.r.lat[k].len() == 0 {
					t.Errorf("no %s samples", kindNames[k])
				}
			}
			sameNames(t, "per layer", names(perLayer(run(name, true))), layer)
		})
	}
}

// TestPaperSimCountsRepeat checks the exact-counter claim on a small
// extract: two fresh set-ups give byte-identical counter fingerprints,
// and PQ's page requests equal the trees' node count (runSuite fails
// otherwise).
func TestPaperSimCountsRepeat(t *testing.T) {
	roads, hydro, _ := paperSet(5, 0.005)
	budget := tiger.Config{Scale: 0.005}
	var prints []string
	for range 2 {
		var cost setupCost
		cat, err := loadCatalog(nil, 0, tiger.Disk1.Region, nil, suiteRels(roads, hydro), &cost)
		if err != nil {
			t.Fatal(err)
		}
		p, err := runSuite(context.Background(), nil, cat, budget.MemoryBytes(), budget.BufferPoolBytes())
		if err != nil {
			t.Fatal(err)
		}
		prints = append(prints, p.counts)
	}
	if prints[0] != prints[1] {
		t.Fatalf("counters differ between fresh set-ups:\n%s---\n%s", prints[0], prints[1])
	}
}

// TestPaperSimReferenceSet checks that paper-sim draws its records
// from the library's own DISK1 generator: at scale 0.1 and paperSeed
// the full set has the sizes, pair count and tree sizes the workload
// is defined by, and a run's holdout leaves out about one record in
// paperHoldout.
func TestPaperSimReferenceSet(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and joins the full DISK1 set")
	}
	roads, hydro := tiger.Config{Scale: paperScale, Seed: paperSeed, Clusters: 40}.Generate(tiger.Disk1)
	if len(roads) != 603_084 || len(hydro) != 116_190 {
		t.Fatalf("DISK1 at scale %g: %d x %d records, want 603084 x 116190", paperScale, len(roads), len(hydro))
	}
	var cost setupCost
	cat, err := loadCatalog(nil, 0, tiger.Disk1.Region, nil, []relSpec{
		{name: "a", recs: roads, index: true}, {name: "b", recs: hydro, index: true},
	}, &cost)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := cat.Get("a")
	b, _ := cat.Get("b")
	if a.IndexNodes() != 1669 || b.IndexNodes() != 321 {
		t.Errorf("tree nodes %d + %d, want 1669 + 321", a.IndexNodes(), b.IndexNodes())
	}
	res, err := cat.Workspace().Query(a, b).Algorithm(unijoin.AlgPQ).CountOnly().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 1_178_485 {
		t.Errorf("%d pairs, want 1178485", res.Count())
	}
	if res.PageRequests != 1669+321 {
		t.Errorf("PQ made %d page requests, want 1990", res.PageRequests)
	}
	kept, _, _ := paperSet(9, paperScale)
	if left := len(roads) - len(kept); left < len(roads)/paperHoldout/2 || left > 2*len(roads)/paperHoldout {
		t.Errorf("seed 9 held out %d of %d roads, want about 1 in %d", left, len(roads), paperHoldout)
	}
}
