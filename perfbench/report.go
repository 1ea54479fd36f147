package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// endToEnd turns a run's samples into the end-to-end metrics.
func endToEnd(o *outcomeOf, attempted, failed int64) metrics {
	m := metrics{}
	r := o.r
	m.set("setup_s", median(o.setups.values()), "s")
	for _, k := range []opKind{opJoin, opCount, opWindow, opAppend} {
		xs := r.lat[k].values()
		m.set(kindNames[k]+"_p50_ms", median(xs), "ms")
		m.set(fmt.Sprintf("%s_p%d_ms", kindNames[k], tailPct[k]), percentile(xs, float64(tailPct[k])), "ms")
	}
	m.set("first_pair_p50_ms", median(r.first.values()), "ms")
	if wall := r.joinMs.sum() / 1000; wall > 0 {
		m.set("pairs_per_s", float64(r.pairs.Load())/wall, "1/s")
	} else {
		m.set("pairs_per_s", 0, "1/s")
	}
	m.set("ok_frac", float64(attempted-failed)/float64(attempted), "frac")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	m.set("batch_join_s", batchJoinS(o.passes), "s")
	m.set("sim_io_s", o.passes[0].simIO.Seconds(), "s")
	return m
}

// batchJoinS is the wall time of one suite pass, taken per join as
// the best of the run's passes and summed. Interference from the rest
// of the machine only ever slows a join down, so the best pass of each
// join is the steadiest estimate of its own cost.
func batchJoinS(passes []suitePass) float64 {
	var total float64
	for _, sj := range suiteJoins {
		best := passes[0].joinWall[sj.name]
		for _, p := range passes[1:] {
			best = min(best, p.joinWall[sj.name])
		}
		total += best.Seconds()
	}
	return total
}

// perLayer turns a traced run's samples into the per-layer metrics.
func perLayer(o *outcomeOf) metrics {
	m := metrics{}
	r := o.r
	ms := func(s *series) float64 { return median(s.values()) }

	m.set("ingest.load_ms", ms(&o.loadMs), "ms")
	if o.replay != nil {
		m.set("ingest.append_ms", ms(&o.replay.appendMs), "ms")
		m.set("ingest.compact_append_ms", ms(&o.replay.compactMs), "ms")
	}
	m.set("ingest.compactions", float64(o.compacts), "count")
	m.set("rtree.build_ms", ms(&o.buildMs), "ms")
	m.set("rtree.nodes", float64(o.nodes), "count")

	// core, sweep, stream and iosim: the suite pass (the median pass's
	// wall times; counts are identical across passes).
	joinMs := map[string][]float64{}
	for _, p := range o.passes {
		for name, d := range p.joinWall {
			joinMs[name] = append(joinMs[name], float64(d.Nanoseconds())/1e6)
		}
	}
	for _, name := range []string{"pq", "sssj", "st", "pbsm", "bfrj"} {
		m.set("core.join_ms."+name, median(joinMs[name]), "ms")
	}
	m.set("core.join_ms.parallel", o.parMs, "ms")
	pass := o.passes[0]
	pq, sssj, st := pass.results["pq"], pass.results["sssj"], pass.results["st"]
	m.set("core.partition_ms", float64(pq.PartitionWall.Nanoseconds())/1e6, "ms")
	m.set("core.sweep_ms", float64(pq.SweepWall.Nanoseconds())/1e6, "ms")
	m.set("core.page_requests", float64(pq.PageRequests), "count")
	m.set("core.scanner_max_bytes", float64(pq.ScannerMaxBytes), "bytes")
	m.set("sweep.comparisons", float64(sssj.Sweep.Comparisons), "count")
	m.set("sweep.cmp_per_pair", float64(sssj.Sweep.Comparisons)/float64(max(sssj.Count(), 1)), "ratio")
	m.set("sweep.max_bytes", float64(sssj.SweepMaxBytes), "bytes")
	var runs, passes int
	for _, s := range sssj.SortStats {
		runs += s.Runs
		passes += s.Passes
	}
	m.set("stream.sort_runs", float64(runs), "count")
	m.set("stream.sort_passes", float64(passes), "count")
	var reads, writes, rand int64
	for _, res := range pass.results {
		reads += res.IO.Reads()
		writes += res.IO.Writes()
		rand += res.IO.RandReads
	}
	m.set("iosim.reads", float64(reads), "count")
	m.set("iosim.writes", float64(writes), "count")
	m.set("iosim.rand_reads", float64(rand), "count")
	m.set("iosim.st_pool_hit_frac", 1-float64(st.PageRequests)/float64(max(st.LogicalRequests, 1)), "frac")

	if p := o.parallel; p != nil && p.Parallel != nil {
		rep := p.Parallel
		m.set("parallel.partition_ms", float64(rep.PartitionWall.Nanoseconds())/1e6, "ms")
		m.set("parallel.sweep_ms", float64(rep.SweepWall.Nanoseconds())/1e6, "ms")
		m.set("parallel.replication", rep.Replication, "ratio")
		m.set("parallel.local_frac", float64(rep.LocalRecords)/float64(max(rep.InputRecords, 1)), "frac")
	}

	m.set("pairbuf.emit_ms", median(o.probe.emitMs), "ms")
	m.set("pairbuf.pairs_per_batch", o.probe.pairsPerBatch, "count")
	m.set("wire.encode_ns_per_pair", o.probe.encodeNs, "ns")
	m.set("wire.decode_ns_per_pair", o.probe.decodeNs, "ns")
	m.set("wire.bytes_per_pair", o.probe.wireBytes, "bytes")
	m.set("httpapi.ndjson_ns_per_pair", o.probe.ndjsonNs, "ns")
	m.set("httpapi.ndjson_bytes_per_pair", o.probe.ndjsonBytes, "bytes")

	// Program-reported phases; zero where the workload has no server
	// (paper-sim) or no router (every workload but routed-ndjson).
	m.set("server.elapsed_ms", ms(&r.srvElapsed), "ms")
	m.set("server.partition_ms", ms(&r.srvPartition), "ms")
	m.set("server.sweep_ms", ms(&r.srvSweep), "ms")
	m.set("server.stream_ms", ms(&r.srvStream), "ms")
	m.set("client.overhead_ms", ms(&r.clientOver), "ms")
	m.set("shard.leg_max_ms", ms(&r.legMax), "ms")
	m.set("shard.leg_skew", ms(&r.legSkew), "ratio")
	m.set("shard.router_overhead_ms", ms(&r.routerOver), "ms")
	m.set("shard.replica_records", float64(o.replicas), "count")

	// Tracing overhead: traced over untraced median, averaged over the
	// op kinds that had both. The library has no trace switch, so
	// paper-sim has neither and reads 0.
	var ratio float64
	var kinds int
	for k := range numKinds {
		t, p := r.tracedLat[k].values(), r.plainLat[k].values()
		if len(t) > 0 && len(p) > 0 && median(p) > 0 {
			ratio += median(t) / median(p)
			kinds++
		}
	}
	if kinds > 0 {
		ratio = ratio/float64(kinds) - 1
	}
	m.set("obs.trace_overhead_frac", ratio, "frac")
	m.set("bench.gen_late_p99_ms", percentile(r.late.values(), 99), "ms")
	m.set("bench.datagen_s", o.datagenS, "s")
	for _, layer := range spanLayers {
		m.set("self_ms."+layer, o.self[layer], "ms")
	}
	return m
}

// print writes the metrics one per line, then the result object as the
// last line.
func (res result) print(w io.Writer) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
