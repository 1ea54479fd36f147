package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"time"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/httpapi"
	"unijoin/internal/server"
	"unijoin/internal/wire"
)

// layerProbe measures single layers from outside, on the workload's
// own data: the same windowed joins its clients send, run in-process
// one at a time after the timed loop.
type layerProbe struct {
	emitMs        []float64 // EmitBatch run minus count-only run of one query
	pairsPerBatch float64
	encodeNs      float64 // wire, per pair
	decodeNs      float64
	wireBytes     float64
	ndjsonNs      float64 // httpapi.LineWriter, per pair
	ndjsonBytes   float64
}

// probeLayers runs each window of wins as a PQ join twice, count-only
// and with EmitBatch, and streams the collected pairs through the wire
// codec and the NDJSON line writer in the server's batch size.
func probeLayers(ctx context.Context, tr *tracer, cat *unijoin.Catalog, wins []unijoin.Rect, memory, pool int) (layerProbe, error) {
	var lp layerProbe
	a, _ := cat.Get("a")
	b, _ := cat.Get("b")
	ws := cat.Workspace()
	var batches, total int64
	var encNs, decNs, ndNs, wireBytes, ndBytes float64
	for _, w := range wins {
		op := tr.newOp()
		query := func() *unijoin.Query {
			q := ws.Query(a, b).Window(w)
			if memory > 0 {
				q.Memory(memory).BufferPool(pool)
			}
			return q
		}
		start := time.Now()
		counted, err := query().CountOnly().Run(ctx)
		mid := time.Now()
		tr.record(op, 0, "core", "Query.Run count-only", start, mid)
		if err != nil {
			return lp, err
		}
		var pairs [][2]uint32
		var n int64
		_, err = query().EmitBatch(func(batch []unijoin.Pair) {
			n++
			for _, p := range batch {
				pairs = append(pairs, [2]uint32{p.Left, p.Right})
			}
		}).Run(ctx)
		end := time.Now()
		tr.record(op, 0, "pairbuf", "Query.Run EmitBatch", mid, end)
		if err != nil {
			return lp, err
		}
		if int64(len(pairs)) != counted.Count() {
			return lp, errors.New("pairbuf: EmitBatch delivered a different pair count than count-only")
		}
		lp.emitMs = append(lp.emitMs, msSince(mid, end)-msSince(start, mid))
		batches += n
		total += int64(len(pairs))

		enc, dec, size, err := wireRoundTrip(tr, op, pairs)
		if err != nil {
			return lp, err
		}
		encNs, decNs, wireBytes = encNs+enc, decNs+dec, wireBytes+size
		nd, ndSize := ndjsonWrite(tr, op, pairs)
		ndNs, ndBytes = ndNs+nd, ndBytes+ndSize
	}
	if total == 0 || batches == 0 {
		return lp, errors.New("layer probe: the probe windows produced no pairs")
	}
	t := float64(total)
	lp.pairsPerBatch = t / float64(batches)
	lp.encodeNs, lp.decodeNs, lp.wireBytes = encNs/t, decNs/t, wireBytes/t
	lp.ndjsonNs, lp.ndjsonBytes = ndNs/t, ndBytes/t
	return lp, nil
}

// wireRoundTrip frames pairs in server-sized batches with wire.Encoder,
// decodes them back with wire.Decoder and checks that they survived.
// It returns the encode and decode nanoseconds and the frame bytes.
func wireRoundTrip(tr *tracer, op int64, pairs [][2]uint32) (encNs, decNs, size float64, err error) {
	var buf bytes.Buffer
	start := time.Now()
	enc := wire.NewEncoder(&buf)
	for i := 0; i < len(pairs); i += server.DefaultBatchPairs {
		if err := enc.WritePairs(pairs[i:min(i+server.DefaultBatchPairs, len(pairs))]); err != nil {
			return 0, 0, 0, err
		}
	}
	enc.Close()
	mid := time.Now()
	tr.record(op, 0, "wire", "wire.Encoder", start, mid)
	dec := wire.NewDecoder(bytes.NewReader(buf.Bytes()))
	var got int
	var scratch [][2]uint32
	for {
		f, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, 0, 0, err
		}
		if scratch, err = f.Pairs(scratch[:0]); err != nil {
			return 0, 0, 0, err
		}
		for _, p := range scratch {
			if p != pairs[got] {
				return 0, 0, 0, errors.New("wire: decoded pair differs from the encoded one")
			}
			got++
		}
	}
	end := time.Now()
	tr.record(op, 0, "wire", "wire.Decoder", mid, end)
	if got != len(pairs) {
		return 0, 0, 0, errors.New("wire: decoded pair count differs")
	}
	return float64(mid.Sub(start).Nanoseconds()), float64(end.Sub(mid).Nanoseconds()), float64(buf.Len()), nil
}

// ndjsonWrite writes pairs as NDJSON batch lines through
// httpapi.LineWriter into a recorder.
func ndjsonWrite(tr *tracer, op int64, pairs [][2]uint32) (ns, size float64) {
	rec := httptest.NewRecorder()
	start := time.Now()
	lw := httpapi.NewLineWriter(rec)
	for i := 0; i < len(pairs); i += server.DefaultBatchPairs {
		lw.WriteLine(client.JoinLine{Pairs: pairs[i:min(i+server.DefaultBatchPairs, len(pairs))]})
	}
	lw.Close()
	end := time.Now()
	tr.record(op, 0, "httpapi", "httpapi.LineWriter", start, end)
	return float64(end.Sub(start).Nanoseconds()), float64(rec.Body.Len())
}

// ingestReplay appends batches in order to a fresh copy of a relation
// with Relation.Append, in-process, timing each call.
type ingestReplay struct {
	cat       *unijoin.Catalog
	appendMs  series
	compactMs series // appends that triggered a compaction
}

// replayAppends loads base (indexed when index is set) under rel into
// a fresh catalog next to the given unchanged relations, then applies
// the acknowledged batches.
func replayAppends(tr *tracer, u unijoin.Rect, rel string, base []unijoin.Record, index bool, others []relSpec, batches [][]unijoin.Record, acked []int) (*ingestReplay, error) {
	var cost setupCost
	rels := append([]relSpec{{name: rel, recs: base, index: index}}, others...)
	op := tr.newOp()
	cat, err := loadCatalog(tr, op, u, nil, rels, &cost)
	if err != nil {
		return nil, err
	}
	r, _ := cat.Get(rel)
	ir := &ingestReplay{cat: cat}
	for _, i := range acked {
		start := time.Now()
		res, err := r.Append(batches[i])
		end := time.Now()
		tr.record(op, 0, "ingest", "Relation.Append", start, end)
		if err != nil {
			return nil, err
		}
		ir.appendMs.add(msSince(start, end))
		if res.Compacted {
			ir.compactMs.add(msSince(start, end))
		}
	}
	return ir, nil
}
