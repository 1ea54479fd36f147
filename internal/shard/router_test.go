package shard_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/datagen"
	"unijoin/internal/server"
	"unijoin/internal/shard"
	"unijoin/internal/wire"
)

var universe = unijoin.NewRect(0, 0, 1000, 1000)

// allAlgorithms is every join strategy the service accepts; the
// sharding contract must hold for each one.
var allAlgorithms = []string{"PQ", "SSSJ", "PBSM", "ST", "auto", "BFRJ", "parallel"}

func discard() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// startShard boots one sjserved-equivalent shard holding the slices
// of the given relations its interval loads.
func startShard(t *testing.T, iv shard.Interval, names []string, rels map[string][]unijoin.Record, index bool) string {
	t.Helper()
	ws := unijoin.NewWorkspace()
	ws.SetUniverse(universe)
	cat := unijoin.NewCatalogOn(ws)
	for _, name := range names {
		if _, err := cat.Load(name, iv.Slice(rels[name]), index); err != nil {
			t.Fatalf("loading %s: %v", name, err)
		}
	}
	// An unbounded interval models a server started without -stripe
	// (it owns everything); a bounded one enables the shard filters.
	cfg := server.Config{Catalog: cat, Logger: discard()}
	if !iv.Unbounded() {
		cfg.Stripe = &iv
	}
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// startFleet shards the relations across the plan's stripes, fronts
// them with a router service, and returns a client speaking to it —
// the full path a production client takes: client → sjrouter →
// scatter → K × sjserved → gather.
func startFleet(t *testing.T, plan *shard.Plan, names []string, rels map[string][]unijoin.Record, index bool) (*client.Client, *shard.Router, string) {
	t.Helper()
	urls := make([]string, plan.Shards())
	for i := range urls {
		urls[i] = startShard(t, plan.Interval(i), names, rels, index)
	}
	router, err := shard.NewRouter(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.Verify(context.Background()); err != nil {
		t.Fatalf("fleet verification: %v", err)
	}
	svc := shard.NewService(shard.ServiceConfig{Router: router, Logger: discard()})
	front := httptest.NewServer(svc.Handler())
	t.Cleanup(front.Close)
	return client.New(front.URL, nil), router, front.URL
}

// brute computes the reference pair set independently of every join
// implementation under test.
func brute(a, b []unijoin.Record, win *unijoin.Rect) map[unijoin.Pair]bool {
	out := map[unijoin.Pair]bool{}
	for _, ra := range a {
		if win != nil && !ra.Rect.Intersects(*win) {
			continue
		}
		for _, rb := range b {
			if win != nil && !rb.Rect.Intersects(*win) {
				continue
			}
			if ra.Rect.Intersects(rb.Rect) {
				out[unijoin.Pair{Left: ra.ID, Right: rb.ID}] = true
			}
		}
	}
	return out
}

// adversarial builds two relations dense in the worst cases of the
// ownership rules: zero-width records sitting exactly on shard
// boundaries, records whose left or right edge coincides with a
// boundary, duplicate rectangles under distinct IDs, and records
// spanning several stripes — plus uniform filler so local pairs
// exist too.
func adversarial(bounds []unijoin.Coord) (a, b []unijoin.Record) {
	var id uint32
	add := func(dst []unijoin.Record, x1, y1, x2, y2 unijoin.Coord) []unijoin.Record {
		id++
		return append(dst, unijoin.Record{Rect: unijoin.NewRect(x1, y1, x2, y2), ID: id})
	}
	for _, bd := range bounds {
		for rep := 0; rep < 2; rep++ { // duplicates under distinct IDs
			a = add(a, bd, 10, bd, 990)      // zero-width on the boundary
			a = add(a, bd-3, 100, bd+3, 500) // crossing
			a = add(a, bd-5, 200, bd, 600)   // right edge on the boundary
			a = add(a, bd, 300, bd+5, 700)   // left edge on the boundary
			b = add(b, bd, 20, bd, 980)
			b = add(b, bd-2, 150, bd+2, 450)
			b = add(b, bd-7, 250, bd, 650)
			b = add(b, bd, 350, bd+7, 750)
		}
	}
	// A record spanning every stripe meets everything horizontally.
	a = add(a, 0, 400, 1000, 420)
	b = add(b, 0, 410, 1000, 430)
	for i, r := range datagen.Uniform(41, 600, universe, 30) {
		r.ID = id + 1 + uint32(i)
		a = append(a, r)
	}
	id += 601
	for i, r := range datagen.Uniform(42, 500, universe, 30) {
		r.ID = id + 1 + uint32(i)
		b = append(b, r)
	}
	return a, b
}

// TestRouterJoinEqualsSingleProcess is the sharding correctness
// property: for every algorithm and shard count, a join (and window
// query) executed through the router over K striped sjserved shards
// returns exactly the pair set — duplicate-free — and count of the
// single-process run, on uniform, clustered, and boundary-adversarial
// inputs, windowed and unwindowed.
func TestRouterJoinEqualsSingleProcess(t *testing.T) {
	terr := datagen.NewTerrain(31, universe, 8)
	fixedBounds := []unijoin.Coord{140, 320, 500, 680, 810, 930}
	advA, advB := adversarial(fixedBounds)
	cases := []struct {
		name string
		a, b []unijoin.Record
		// fixed, when set, overrides the quantile planner with
		// hand-picked boundaries the adversarial records sit on.
		fixed []unijoin.Coord
	}{
		{name: "uniform", a: datagen.Uniform(21, 2000, universe, 25), b: datagen.Uniform(22, 1500, universe, 25)},
		{name: "clustered",
			a: datagen.Roads(terr, 32, 2000, datagen.RoadParams{}),
			b: datagen.Hydro(terr, 33, 1200, datagen.HydroParams{})},
		{name: "adversarial", a: advA, b: advB, fixed: fixedBounds},
	}
	win := unijoin.NewRect(100, 100, 450, 450)
	winDTO := client.Rect{XLo: 100, YLo: 100, XHi: 450, YHi: 450}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rels := map[string][]unijoin.Record{"a": tc.a, "b": tc.b}
			names := []string{"a", "b"}
			wantAll := brute(tc.a, tc.b, nil)
			wantWin := brute(tc.a, tc.b, &win)
			wantRecs := map[uint32]bool{}
			for _, r := range tc.a {
				if r.Rect.Intersects(win) {
					wantRecs[r.ID] = true
				}
			}

			for _, k := range []int{1, 2, 4, 7} {
				var plan *shard.Plan
				if tc.fixed != nil {
					var err error
					plan, err = shard.PlanFromBoundaries(universe, tc.fixed[:k-1])
					if err != nil {
						t.Fatal(err)
					}
				} else {
					plan = shard.NewPlan(universe, k, tc.a, tc.b)
				}
				cl, _, _ := startFleet(t, plan, names, rels, true)
				ctx := context.Background()

				for _, alg := range allAlgorithms {
					req := client.JoinRequest{Left: "a", Right: "b", Algorithm: alg}
					sum, err := cl.JoinCount(ctx, req)
					if err != nil {
						t.Fatalf("k=%d %s count: %v", k, alg, err)
					}
					if sum.Pairs != int64(len(wantAll)) {
						t.Fatalf("k=%d %s: routed count %d != single-process %d",
							k, alg, sum.Pairs, len(wantAll))
					}

					got := map[unijoin.Pair]bool{}
					dups := 0
					sum, err = cl.Join(ctx, req, func(l, r uint32) {
						p := unijoin.Pair{Left: l, Right: r}
						if got[p] {
							dups++
						}
						got[p] = true
					})
					if err != nil {
						t.Fatalf("k=%d %s stream: %v", k, alg, err)
					}
					if dups != 0 {
						t.Fatalf("k=%d %s: %d duplicate pairs in routed stream", k, alg, dups)
					}
					if len(got) != len(wantAll) || int64(len(got)) != sum.Pairs {
						t.Fatalf("k=%d %s: streamed %d pairs (summary %d), want %d",
							k, alg, len(got), sum.Pairs, len(wantAll))
					}
					for p := range got {
						if !wantAll[p] {
							t.Fatalf("k=%d %s: spurious pair %v", k, alg, p)
						}
					}

					wsum, err := cl.JoinCount(ctx, client.JoinRequest{
						Left: "a", Right: "b", Algorithm: alg, Window: &winDTO,
					})
					if err != nil {
						t.Fatalf("k=%d %s windowed: %v", k, alg, err)
					}
					if wsum.Pairs != int64(len(wantWin)) {
						t.Fatalf("k=%d %s: routed windowed count %d != single-process %d",
							k, alg, wsum.Pairs, len(wantWin))
					}
				}

				// The selection counterpart: window queries dedup
				// replicated boundary records by left-edge ownership.
				gotRecs := map[uint32]bool{}
				recDups := 0
				rsum, err := cl.Window(ctx, client.WindowRequest{Relation: "a", Window: &winDTO},
					func(r client.RecordOut) {
						if gotRecs[r.ID] {
							recDups++
						}
						gotRecs[r.ID] = true
					})
				if err != nil {
					t.Fatalf("k=%d window: %v", k, err)
				}
				if recDups != 0 {
					t.Fatalf("k=%d: %d duplicate records in routed window stream", k, recDups)
				}
				if len(gotRecs) != len(wantRecs) || rsum.Records != int64(len(wantRecs)) {
					t.Fatalf("k=%d: routed window %d records (summary %d), want %d",
						k, len(gotRecs), rsum.Records, len(wantRecs))
				}
				for id := range gotRecs {
					if !wantRecs[id] {
						t.Fatalf("k=%d: spurious window record %d", k, id)
					}
				}
			}
		})
	}
}

// TestRouterMetadataAndErrors covers the router's merged metadata
// endpoints and its typed error propagation.
func TestRouterMetadataAndErrors(t *testing.T) {
	a := datagen.Uniform(51, 1200, universe, 25)
	b := datagen.Uniform(52, 900, universe, 25)
	rels := map[string][]unijoin.Record{"a": a, "b": b}
	names := []string{"a", "b"}
	plan := shard.NewPlan(universe, 3, a, b)
	cl, router, _ := startFleet(t, plan, names, rels, false) // no indexes
	ctx := context.Background()

	infos, err := cl.Relations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("relations: got %d, want 2", len(infos))
	}
	for _, info := range infos {
		if info.Shards != plan.Shards() {
			t.Fatalf("relation %s: Shards = %d, want %d", info.Name, info.Shards, plan.Shards())
		}
		if info.Records < int64(len(rels[info.Name])) {
			t.Fatalf("relation %s: merged records %d < input %d (shards lost records)",
				info.Name, info.Records, len(rels[info.Name]))
		}
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != plan.Shards() {
		t.Fatalf("stats.Shards = %d, want %d", stats.Shards, plan.Shards())
	}

	// Typed errors surface through the router: unknown relation is
	// ErrNotFound, an index-requiring algorithm on unindexed shards
	// is ErrNeedsIndex.
	if _, err := cl.JoinCount(ctx, client.JoinRequest{Left: "a", Right: "nope"}); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("unknown relation: got %v, want ErrNotFound", err)
	}
	if _, err := cl.JoinCount(ctx, client.JoinRequest{Left: "a", Right: "b", Algorithm: "ST"}); !errors.Is(err, client.ErrNeedsIndex) {
		t.Fatalf("ST without indexes: got %v, want ErrNeedsIndex", err)
	}

	// A fleet of >1 shards where one serves no stripe must be
	// refused: it would double-count pairs.
	full := startShard(t, shard.Everything(), names, rels, false)
	bad, err := shard.NewRouter([]string{router.Endpoints()[0], full}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Verify(ctx); err == nil {
		t.Fatal("fleet with an unstriped shard passed verification")
	}

	// A one-shard fleet whose shard serves a bounded stripe would
	// answer with a subset of the data — also refused.
	lone, err := shard.NewRouter(router.Endpoints()[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lone.Verify(ctx); err == nil {
		t.Fatal("single bounded-stripe shard passed verification")
	}
}

// TestRoutedErrorText pins the exact text of a routed failure: the
// router prefixes the failing shard to the shard's own message, so the
// client's error carries one "sjserved:" prefix and one status suffix,
// on both transports.
func TestRoutedErrorText(t *testing.T) {
	rels := map[string][]unijoin.Record{
		"a": datagen.Uniform(7, 300, universe, 25),
		"b": datagen.Uniform(8, 200, universe, 25),
	}
	plan, err := shard.PlanFromBoundaries(universe, []unijoin.Coord{333, 666})
	if err != nil {
		t.Fatal(err)
	}
	cl, router, _ := startFleet(t, plan, []string{"a", "b"}, rels, true)
	// Every shard rejects the query; which one the router reports
	// depends on which answered first.
	want := map[string]bool{}
	for i, ep := range router.Endpoints() {
		want[fmt.Sprintf(`sjserved: shard %d (%s): right relation "nope" is not in the catalog (404 not_found)`, i, ep)] = true
	}
	for _, binary := range []bool{false, true} {
		cl.PreferBinary = binary
		_, err := cl.JoinCount(context.Background(), client.JoinRequest{Left: "a", Right: "nope"})
		if err == nil || !want[err.Error()] {
			t.Fatalf("binary=%v: routed unknown-relation error = %v, want one of %v", binary, err, want)
		}
	}

	// A shard stream the router itself finds broken reads the same way.
	stub := frameShardStub(t, wire.AppendFrame(nil, wire.TypePairs, make([]byte, wire.PairSize)))
	lone, err := shard.NewRouter([]string{stub}, nil)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(shard.NewService(shard.ServiceConfig{Router: lone, Logger: discard()}).Handler())
	t.Cleanup(front.Close)
	_, err = client.New(front.URL, nil).JoinCount(context.Background(), client.JoinRequest{Left: "a", Right: "b"})
	if got, want := fmt.Sprint(err), "sjserved: shard 0 ("+stub+"): frame stream ended without an END frame (500 internal)"; got != want {
		t.Fatalf("truncated shard stream error = %q, want %q", got, want)
	}
}
