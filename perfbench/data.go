package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/datagen"
	"unijoin/internal/geom"
	"unijoin/internal/tiger"
)

// refUniverse is the serving workloads' universe: the ROADMAP's
// reference set lives on a 1000x1000 square.
var refUniverse = unijoin.NewRect(0, 0, 1000, 1000)

// refExtent bounds a reference-set record's side.
const refExtent = 20

// subSeed derives an independent stream seed from the run seed, so
// each generated input (relations, windows, batches) changes with
// --seed without two inputs sharing a random sequence.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9
	z ^= z >> 31
	z *= 0x94D049BB133111EB
	z ^= z >> 29
	return int64(z >> 1)
}

// uniformPair generates the two joined relations of a serving
// workload: n and m uniform records with extent at most refExtent.
func uniformPair(seed int64, n, m int) (a, b []unijoin.Record) {
	return datagen.Uniform(subSeed(seed, 1), n, refUniverse, refExtent),
		datagen.Uniform(subSeed(seed, 2), m, refUniverse, refExtent)
}

// paperSeed is the generation seed of paper-sim's DISK1 set. At
// scale 0.1 tiger.Config.Generate draws 603,084 roads x 116,190
// hydrography records with 1,178,485 intersecting pairs from it. The
// set is part of the workload's definition, like its scale: another
// generation seed moves the population clusters too, and the output
// swings between 0.13M and 1.2M pairs from one seed to the next.
const paperSeed = 1997

// paperHoldout is the share of paper-sim's records a run's --seed
// leaves out: one in paperHoldout, picked by hash.
const paperHoldout = 100

// paperSet is paper-sim's joined data at scale: the DISK1 set drawn
// at paperSeed, less a seeded one-in-paperHoldout sample of each
// relation. The holdout gives each seed its own inputs, so the
// simulated I/O time and the exact counters differ between seeds,
// while every seed keeps 99% of the same records on the same terrain.
// The full set is returned as well; the query windows are placed on
// it.
func paperSet(seed int64, scale float64) (roads, hydro, fullRoads []unijoin.Record) {
	fullRoads, fullHydro := tiger.Config{Scale: scale, Seed: paperSeed, Clusters: 40}.Generate(tiger.Disk1)
	return holdOut(seed, 3, fullRoads), holdOut(seed, 4, fullHydro), fullRoads
}

// holdOut returns recs without the seeded one-in-paperHoldout sample.
func holdOut(seed int64, stream uint64, recs []unijoin.Record) []unijoin.Record {
	salt := uint64(subSeed(seed, stream))
	out := make([]unijoin.Record, 0, len(recs))
	for i, r := range recs {
		if mix64(salt^uint64(i))%paperHoldout != 0 {
			out = append(out, r)
		}
	}
	return out
}

// windows draws n query windows inside universe u from rng. Their
// sides are stratified over [minSide, maxSide], the same set of shapes
// for every seed. A join's cost grows with its window's area, so fixing
// the shapes keeps the mix of cheap and costly ops the same from one
// run to the next. center, when set, picks each window's centre;
// otherwise windows are placed uniformly.
func windows(rng *rand.Rand, n int, u unijoin.Rect, minSide, maxSide float64, center func(*rand.Rand) geom.Point) []unijoin.Rect {
	side := func(i int) float64 { return minSide + (maxSide-minSide)*(float64(i%n)+0.5)/float64(n) }
	out := make([]unijoin.Rect, n)
	for i := range out {
		// Pair the i-th width with a height further along the strata, so
		// shapes range from squares to 1:3 strips.
		w, h := side(i), side(i*7+n/3)
		var x, y float64
		if center != nil {
			c := center(rng)
			x, y = float64(c.X)-w/2, float64(c.Y)-h/2
		} else {
			x = float64(u.XLo) + rng.Float64()*(float64(u.Width())-w)
			y = float64(u.YLo) + rng.Float64()*(float64(u.Height())-h)
		}
		x = min(max(x, float64(u.XLo)), float64(u.XHi)-w)
		y = min(max(y, float64(u.YLo)), float64(u.YHi)-h)
		out[i] = unijoin.NewRect(unijoin.Coord(x), unijoin.Coord(y), unijoin.Coord(x+w), unijoin.Coord(y+h))
	}
	return out
}

// seededWindows places windows uniformly from the run seed.
func seededWindows(seed int64, stream uint64, n int, u unijoin.Rect, minSide, maxSide float64) []unijoin.Rect {
	return windows(rand.New(rand.NewSource(subSeed(seed, stream))), n, u, minSide, maxSide, nil)
}

// paperWindows places paper-sim's query windows on the full DISK1
// set, each centred on a record drawn at random, so they follow the
// data's density and land where roads and rivers are. Like the data
// set, they are part of the workload's definition rather than of the
// seed: a seeded placement puts one run's windows in a city and the
// next one's on empty land, and the per-op cost swings with it.
func paperWindows(recs []unijoin.Record, stream uint64, n int, minSide, maxSide float64) []unijoin.Rect {
	rng := rand.New(rand.NewSource(subSeed(paperSeed, stream)))
	return windows(rng, n, tiger.Disk1.Region, minSide, maxSide, func(rng *rand.Rand) geom.Point {
		r := recs[rng.Intn(len(recs))].Rect
		return geom.Point{X: (r.XLo + r.XHi) / 2, Y: (r.YLo + r.YHi) / 2}
	})
}

// appendBatch generates batch i of fresh records for an open-loop
// appender: size records inside u with extent at most ext, IDs
// continuing densely after firstID.
func appendBatch(seed int64, stream uint64, i, size int, firstID uint32, u unijoin.Rect, ext float64) []unijoin.Record {
	recs := datagen.Uniform(subSeed(seed, stream+uint64(i)<<8), size, u, ext)
	for j := range recs {
		recs[j].ID = firstID + uint32(i*size+j)
	}
	return recs
}

// toRecordIn converts records to the append endpoint's body shape.
func toRecordIn(recs []unijoin.Record) []client.RecordIn {
	out := make([]client.RecordIn, len(recs))
	for i, r := range recs {
		out[i] = client.RecordIn{ID: r.ID, Rect: toClientRect(r.Rect)}
	}
	return out
}

func toClientRect(r unijoin.Rect) client.Rect {
	return client.Rect{XLo: float64(r.XLo), YLo: float64(r.YLo), XHi: float64(r.XHi), YHi: float64(r.YHi)}
}

// digest hashes record sets in their on-disk encoding; the tests use
// it to show one seed always yields byte-identical inputs.
func digest(sets ...[]unijoin.Record) [32]byte {
	h := sha256.New()
	var cell [geom.RecordSize]byte
	for _, set := range sets {
		binary.Write(h, binary.LittleEndian, int64(len(set)))
		for _, r := range set {
			geom.EncodeRecord(cell[:], r)
			h.Write(cell[:])
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// mix64 scrambles a value for order-independent checksums: the sum of
// mix64 over a result set identifies the set whatever order a server
// streamed it in.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func pairKey(l, r uint32) uint64 { return mix64(uint64(l)<<32 | uint64(r)) }
