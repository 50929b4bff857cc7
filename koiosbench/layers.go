package main

import "time"

// perLayer turns the traced run's spans and counters into the per-layer
// metrics. Counts are per query (or per write) unless they are run totals
// (sched.*, segment.sealed_max). A layer the workload's path does not
// reach reads 0.
func perLayer(m map[string]float64, tr *tracer, t *tally, diskBytes, liveBytes int64) {
	sp := tr.byName()
	per := func(sum float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}

	// Server spans joined to the client's round trip of the same op: the
	// handler's time beyond the engine's own is the server's overhead, the
	// round trip beyond the handler is transport (client and loopback).
	handler := map[int64]span{}
	for _, s := range sp["server.search"] {
		handler[s.Op] = s
	}
	var overhead, transport time.Duration
	var bytes, n int
	for _, c := range sp["client.search"] {
		h, ok := handler[c.Op]
		if !ok {
			continue
		}
		overhead += h.dur() - time.Duration(c.EngineNS)
		transport += c.dur() - h.dur()
		bytes += h.Bytes
		n++
	}
	m["server.search_overhead_ms"] = per(ms(overhead), n)
	m["server.transport_ms"] = per(ms(transport), n)
	m["server.response_bytes"] = per(float64(bytes), n)
	m["server.write_handler_ms"] = meanMS(sp["server.write"])

	m["collection.insert_ms"] = meanMS(sp["collection.insert"])
	m["segment.search_ms"] = meanMS(sp["segment.search"])
	m["segment.insert_ms"] = meanMS(sp["segment.insert"])
	m["segment.delete_ms"] = meanMS(sp["segment.delete"])
	m["segment.checkpoint_ms"] = meanMS(sp["segment.checkpoint"])
	m["segment.compact_ms"] = meanMS(sp["segment.compact"])
	m["segment.open_ms"] = meanMS(sp["segment.open"])
	m["segment.sealed_max"] = float64(t.sealedMax)
	m["sched.runs"] = float64(t.schedRuns)
	m["sched.retries"] = float64(t.schedRetries)
	m["store.disk_per_live_byte"] = per(float64(diskBytes), int(liveBytes))

	e := t.engine
	m["core.refine_ms"] = per(ms(e.refine), e.n)
	m["core.postproc_ms"] = per(ms(e.postproc), e.n)
	m["core.candidates"] = per(float64(e.candidates), e.n)
	m["core.iub_pruned_frac"] = per(float64(e.iubPruned), e.candidates)
	m["core.stream_tuples"] = per(float64(e.tuples), e.n)
	m["core.stream_retrieved"] = per(float64(e.retrieved), e.n)
	m["core.query_mem_kb"] = per(float64(e.memBytes)/1024, e.n)

	m["index.retrieve_ms"] = meanMS(sp["index.retrieve"])
	m["index.neighbors"] = per(float64(t.probeNeighbors), len(sp["index.retrieve"]))

	hits := t.cacheAfter.Hits - t.cacheBefore.Hits
	lookups := hits + t.cacheAfter.Misses - t.cacheBefore.Misses
	m["sim.cache_hit_rate"] = per(float64(hits), int(lookups))
	m["sim.cache_lookups"] = per(float64(lookups), e.n)
	m["sim.pair_ns"] = per(float64(time.Duration(meanMS(sp["sim.pairs"])*1e6)), simProbePairs)

	m["matching.verify_calls"] = per(float64(e.verifyCalls), e.nm)
	m["matching.hungarian_runs"] = per(float64(e.verifyCalls-e.hungSkipped), e.nm)
	m["matching.skip_frac"] = per(float64(e.hungSkipped), e.verifyCalls)
	m["matching.hungarian_iters"] = per(float64(e.hungIters), e.nm)
}
