package unijoin

import (
	"context"
	"fmt"
	"math"
	"testing"

	"unijoin/internal/datagen"
	"unijoin/internal/shard"
)

// ownerTilings are the boundary sets of the K ∈ {1,2,3,5} tilings the
// ownership property is checked on. Every boundary is exact in
// float32, so adversarial records can start exactly on one.
var ownerTilings = [][]Coord{
	nil,
	{500},
	{300, 650},
	{200, 400, 600, 800},
}

// ownerRecords is uniform data plus the records the reference-point
// rule is most likely to get wrong: zero-width rectangles, left edges
// (and right edges) exactly on a tiling boundary, and duplicate
// coordinates, within one relation and across the two.
func ownerRecords(seed int64, n int, idBase ID) []Record {
	u := NewRect(0, 0, 1000, 1000)
	recs := datagen.Uniform(seed, n, u, 40)
	id := idBase
	add := func(r Rect) {
		recs = append(recs, Record{Rect: r, ID: id})
		id++
	}
	for _, bounds := range ownerTilings {
		for _, x := range bounds {
			add(NewRect(x, 100, x, 180))    // zero width on the boundary
			add(NewRect(x, 150, x+30, 230)) // starts on the boundary
			add(NewRect(x-30, 200, x, 260)) // ends on the boundary
			add(NewRect(x, 150, x+30, 230)) // duplicate coordinates
		}
	}
	add(NewRect(420, 420, 420, 420)) // a point, twice
	add(NewRect(420, 420, 420, 420))
	return recs
}

// ownerCases are the algorithm configurations of the property test:
// the algorithm, its worker count, and which inputs are indexed.
var ownerCases = []struct {
	name    string
	alg     Algorithm
	workers int
	indexed [2]bool
}{
	{"PQ-0idx", AlgPQ, 0, [2]bool{}},
	{"PQ-1idx", AlgPQ, 0, [2]bool{true, false}},
	{"PQ-2idx", AlgPQ, 0, [2]bool{true, true}},
	{"SSSJ", AlgSSSJ, 0, [2]bool{}},
	{"PBSM", AlgPBSM, 0, [2]bool{}},
	{"ST", AlgST, 0, [2]bool{true, true}},
	{"BFRJ", AlgBFRJ, 0, [2]bool{true, true}},
	{"auto", AlgAuto, 0, [2]bool{true, true}},
	{"parallel-1", AlgParallel, 1, [2]bool{}},
	{"parallel-3", AlgParallel, 3, [2]bool{}},
}

// ownerData is one workspace holding each input twice, unindexed
// ([0]) and indexed ([1]), and returns the query for a case.
func ownerData(t *testing.T, a, b []Record) func(i int) *Query {
	t.Helper()
	ws := NewWorkspace()
	ws.SetUniverse(NewRect(0, 0, 1000, 1000))
	var rels [2][2]*Relation
	for side, recs := range [][]Record{a, b} {
		for idx := range rels[side] {
			rel, err := ws.AddRelation(recs)
			if err != nil {
				t.Fatal(err)
			}
			if idx == 1 {
				if err := rel.BuildIndex(); err != nil {
					t.Fatal(err)
				}
			}
			rels[side][idx] = rel
		}
	}
	pick := func(side int, indexed bool) *Relation {
		if indexed {
			return rels[side][1]
		}
		return rels[side][0]
	}
	return func(i int) *Query {
		c := ownerCases[i]
		return ws.Query(pick(0, c.indexed[0]), pick(1, c.indexed[1])).Algorithm(c.alg).Parallelism(c.workers)
	}
}

// TestQueryOwnerTilesResult is the ownership property: for every
// tiling of the x-axis and every algorithm, the shards' owned counts
// sum to the unowned count, their streamed pairs union to the brute
// force answer with no pair reported twice, and each shard's Count
// equals the pairs it emitted. Shards run both over their
// Interval.Slice of the data (a sharded catalog) and over the full
// relations (a stripe server on an unsliced catalog).
func TestQueryOwnerTilesResult(t *testing.T) {
	ra, rb := ownerRecords(11, 300, 10000), ownerRecords(12, 200, 20000)
	full := ownerData(t, ra, rb)
	win := NewRect(150, 80, 720, 800)
	ctx := context.Background()
	for _, bounds := range ownerTilings {
		plan, err := shard.PlanFromBoundaries(NewRect(0, 0, 1000, 1000), bounds)
		if err != nil {
			t.Fatal(err)
		}
		ivs := make([]shard.Interval, plan.Shards())
		sliced := make([]func(int) *Query, len(ivs))
		for i := range ivs {
			ivs[i] = plan.Interval(i)
			sliced[i] = ownerData(t, ivs[i].Slice(ra), ivs[i].Slice(rb))
		}
		for ci, c := range ownerCases {
			for _, w := range []*Rect{nil, &win} {
				want := bruteWindow(ra, rb, w)
				for _, layout := range []string{"sliced", "full"} {
					t.Run(fmt.Sprintf("K%d/%s/window=%v/%s", len(ivs), c.name, w != nil, layout), func(t *testing.T) {
						// query is the unowned join (shard -1) or shard i's.
						query := func(i int) *Query {
							q := full(ci)
							if i >= 0 {
								if layout == "sliced" {
									q = sliced[i](ci)
								}
								q.Owner(ivs[i].Lo, ivs[i].Hi)
							}
							if w != nil {
								q.Window(*w)
							}
							return q
						}
						unowned, err := query(-1).CountOnly().Run(ctx)
						if err != nil {
							t.Fatal(err)
						}
						var countSum int64
						seen := map[Pair]int{}
						for i := range ivs {
							counted, err := query(i).CountOnly().Run(ctx)
							if err != nil {
								t.Fatal(err)
							}
							countSum += counted.Count()
							var emitted int64
							streamed, err := query(i).EmitBatch(func(batch []Pair) {
								for _, p := range batch {
									emitted++
									if j, dup := seen[p]; dup {
										t.Fatalf("pair %v reported by shards %d and %d", p, j, i)
									}
									seen[p] = i
								}
							}).Run(ctx)
							if err != nil {
								t.Fatal(err)
							}
							if streamed.Count() != emitted {
								t.Fatalf("shard %d: Count() %d, emitted %d", i, streamed.Count(), emitted)
							}
						}
						if countSum != unowned.Count() {
							t.Fatalf("owned counts sum to %d, unowned count %d", countSum, unowned.Count())
						}
						if len(seen) != len(want) {
							t.Fatalf("shards emitted %d distinct pairs, brute force %d", len(seen), len(want))
						}
						for p := range want {
							if _, ok := seen[p]; !ok {
								t.Fatalf("no shard emitted %v", p)
							}
						}
					})
				}
			}
		}
	}
}

// TestQueryOwnerRejectsEmptyRange checks an owner range that can own
// nothing is an error on every algorithm, not a silently empty join.
func TestQueryOwnerRejectsEmptyRange(t *testing.T) {
	query := ownerData(t, ownerRecords(1, 50, 10000), ownerRecords(2, 50, 20000))
	nan := Coord(math.NaN())
	for ci, c := range ownerCases {
		for _, r := range [][2]Coord{{nan, 500}, {0, nan}, {500, 500}, {600, 500}} {
			if _, err := query(ci).Owner(r[0], r[1]).CountOnly().Run(context.Background()); err == nil {
				t.Errorf("%s: Owner(%v, %v) ran without error", c.name, r[0], r[1])
			}
		}
	}
}
