package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	koios "repro"
	"repro/internal/index"
	"repro/internal/segment"
	"repro/internal/sets"
	"repro/internal/sim"
)

// setups is how many times a run builds the served collection; setup_s is
// their median and the last one serves the timed phase.
const setups = 3

type runConfig struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
	// work is the directory (inside the checkout) for data directories
	// and the trace file.
	work       string
	cpuprofile string
}

// runResult is what one run measured and checked.
type runResult struct {
	correct           bool
	errs              []string
	attempted, failed int
	metrics           map[string]float64
	lines             []string
}

func (r *runResult) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// checker collects correctness failures from concurrent clients.
type checker struct {
	mu   sync.Mutex
	errs []string
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// tally is the timed phase's raw record.
type tally struct {
	mu                            sync.Mutex
	searchLat, writeLat, late     []time.Duration
	searches, searchFail          int
	inserts, insertFail           int
	deletes, deleteFail           int
	searchWall                    time.Duration
	engine                        engineSums
	firstFailures                 []string
	sealedMax                     int
	cacheBefore, cacheAfter       sim.CacheStats
	schedRuns, schedRetries       int64
	schedRunsBase, schedRetryBase int64
	// probeNeighbors counts the α-neighbours the index probe retrieved.
	probeNeighbors int
}

func (t *tally) failure(err error) {
	if len(t.firstFailures) < 5 {
		t.firstFailures = append(t.firstFailures, err.Error())
	}
}

// engineSums accumulates the engine counters of every search of the
// traced run; the matching counters only from searches that expose them.
type engineSums struct {
	n, nm                                    int
	refine, postproc                         time.Duration
	candidates, iubPruned, tuples, retrieved int
	memBytes                                 int64
	verifyCalls, hungSkipped, hungIters      int
	neighbors                                int
}

func (e *engineSums) add(r reply) {
	st := r.stats
	e.n++
	e.refine += st.RefineTime
	e.postproc += st.PostprocTime
	e.candidates += st.Candidates
	e.iubPruned += st.IUBPruned
	e.tuples += st.StreamTuples
	e.retrieved += st.StreamRetrieved
	e.memBytes += st.TotalBytes()
	if r.hasMatching {
		e.nm++
		e.verifyCalls += st.VerifyCalls
		e.hungSkipped += st.HungarianSkipped
		e.hungIters += st.HungarianIterations
	}
}

// cursor hands out operations of whole rounds over the query list: the
// claimant of a round's first operation decides, from the clock, whether
// that round runs at all, so every run ends on a round boundary.
type cursor struct {
	mu       sync.Mutex
	next     int
	total    int
	deadline time.Time
	stopped  bool
}

func (c *cursor) claim() (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped || (c.next%c.total == 0 && c.next > 0 && time.Now().After(c.deadline)) {
		c.stopped = true
		return 0, false
	}
	c.next++
	return c.next - 1, true
}

// liveHeap is the live heap after garbage collection. It collects twice:
// a closed registry stays reachable through one finalizer cycle, so a
// single GC right after a close still counts it.
func liveHeap() uint64 {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func run(cfg runConfig) (*runResult, error) {
	w := cfg.w
	in, err := makeInputs(w, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	res := &runResult{metrics: map[string]float64{}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	base := filepath.Join(cfg.work, fmt.Sprintf("data-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	chk := &checker{}
	res.logf("inputs: %d seed sets, %d queries, %d writes scripted, seed %d (datagen seed %d)",
		len(in.seedSets), len(in.queries), len(in.writes), cfg.seed, w.dataSeed)

	var ops atomic.Int64
	var s *served
	var setupS []float64
	var heapBase uint64
	for i := 0; i < setups; i++ {
		if s != nil {
			if err := s.closeServing(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", i-1, err)
			}
			s = nil
		}
		heapBase = liveHeap()
		start := time.Now()
		s, err = setUp(w, in, filepath.Join(base, fmt.Sprint("setup", i)), tr, chk)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer func() {
		if s != nil {
			s.closeServing()
		}
	}()

	t := &tally{}
	if cfg.cpuprofile != "" {
		f, err := os.Create(cfg.cpuprofile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}
	timed(cfg, s, in, tr, chk, &ops, t)
	if cfg.cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	memMB := float64(int64(liveHeap())-int64(heapBase)) / (1 << 20)

	// Checks and layer probes after the timed phase: drain maintenance,
	// state, oracle, restart, disk.
	var liveBytes int64
	for name := range in.final {
		for _, e := range in.byName[name] {
			liveBytes += int64(len(e))
		}
	}
	var diskBytes int64
	if w.http {
		if err := drain(s, tr, t); err != nil {
			chk.fail("drain: %v", err)
		}
		if len(in.writes) > 0 {
			stateCheck(s, in, chk)
		}
	}
	live := map[string][]string{}
	for name := range in.final {
		live[name] = in.byName[name]
	}
	vocab := vocabulary(live)
	o := &oracle{alpha: alpha, edit: !w.http, sim: editSim}
	if w.http {
		o.sim = cosineSim(in.vec)
	}
	for _, qi := range in.oracleSample {
		q := in.queries[qi]
		r, err := s.search(context.Background(), 0, q.elems)
		if err != nil {
			chk.fail("oracle query %d: %v", qi, err)
			continue
		}
		if err := o.checkTopK(q, r.hits, live, vocab, topK); err != nil {
			chk.fail("oracle query %d: %v", qi, err)
		}
	}
	res.logf("oracle: checked %d sampled queries against every live set (%d sets)", len(in.oracleSample), len(live))
	if len(in.writes) > 0 {
		restartCheck(s, in, chk)
	}
	if w.http {
		if err := s.closeServing(); err != nil {
			chk.fail("close: %v", err)
		}
		diskBytes = dirBytes(s.dir)
	}
	if cfg.trace {
		probeLayers(w, in, vocab, tr, t)
	}

	res.errs = chk.errs
	res.correct = len(chk.errs) == 0
	res.attempted = t.searches + t.inserts + t.deletes
	res.failed = t.searchFail + t.insertFail + t.deleteFail
	searchesOK := t.searches - t.searchFail
	lat := durationsMS(t.searchLat)
	m := res.metrics
	m["search_qps"] = float64(searchesOK) / t.searchWall.Seconds()
	m["search_p50_ms"] = quantile(lat, 0.5)
	m["search_p95_ms"] = quantile(lat, 0.95)
	m["setup_s"] = median(setupS)
	m["mem_mb"] = memMB

	res.logf("setup_s per set-up: %.4f", setupS)
	res.logf("search: attempted %d failed %d over %.2fs (%d rounds of %d queries, %d clients)",
		t.searches, t.searchFail, t.searchWall.Seconds(), t.searches/len(in.queries), len(in.queries), w.clients)
	if len(in.writes) > 0 {
		wl := durationsMS(t.writeLat)
		late := durationsMS(t.late)
		res.logf("insert: attempted %d failed %d; delete: attempted %d failed %d",
			t.inserts, t.insertFail, t.deletes, t.deleteFail)
		res.logf("write_p50_ms %.4f write_p99_ms %.4f (%d writes at %.0f/s, open loop, timed from due time)",
			quantile(wl, 0.5), quantile(wl, 0.99), len(wl), w.writeRate)
		res.logf("writer lateness: median %.4f ms, p99 %.4f ms, max %.4f ms",
			quantile(late, 0.5), quantile(late, 0.99), quantile(late, 1))
	}
	if w.http {
		res.logf("disk_mb %.4f (data directory after clean shutdown)", float64(diskBytes)/(1<<20))
	}
	for _, f := range t.firstFailures {
		res.logf("failed operation: %s", f)
	}
	if cfg.trace {
		perLayer(m, tr, t, diskBytes, liveBytes)
		path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		res.logf("trace: %d spans written to %s", len(tr.spans), path)
	}
	return res, nil
}

// setUp builds the served collection as a user's start-up does and warms
// it with one pass over the query list.
func setUp(w workload, in *inputs, dir string, tr *tracer, chk *checker) (*served, error) {
	s := &served{dir: dir, vec: in.vec, tr: tr}
	if w.http {
		// Seed, checkpoint, close and reopen: the timed phase then
		// searches the mmap-served segments a restarted server uses.
		if err := s.openRegistry(in.seedSets); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := s.mgr().Checkpoint(); err != nil {
			s.closeServing()
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		tr.add(0, "segment.checkpoint", "setup", start, time.Now())
		if err := s.closeServing(); err != nil {
			return nil, err
		}
		if err := s.openRegistry(nil); err != nil {
			return nil, err
		}
	} else {
		seed := make([]koios.Set, len(in.seedSets))
		for i, x := range in.seedSets {
			seed[i] = koios.Set{Name: x.Name, Elements: x.Elements}
		}
		s.lib = koios.NewRegistry(seed, koios.EditSimilarity(), koios.Config{K: topK, Alpha: alpha})
		s.eng = s.lib.Default()
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(in.queries); i = int(next.Add(1) - 1) {
				r, err := s.search(context.Background(), 0, in.queries[i].elems)
				if err != nil {
					chk.fail("warm-up query %d: %v", i, err)
					continue
				}
				if err := checkShape(in.queries[i].elems, r.hits, in.byName); err != nil {
					chk.fail("warm-up query %d: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
	return s, nil
}

// timed runs the measured phase: closed-loop search clients over whole
// rounds of the query list and, on write workloads, the open-loop writer.
func timed(cfg runConfig, s *served, in *inputs, tr *tracer, chk *checker, ops *atomic.Int64, t *tally) {
	w := cfg.w
	ctx := context.Background()
	t.cacheBefore = s.cacheStats()
	if s.reg != nil && s.reg.Scheduler() != nil {
		st := s.reg.Scheduler().Stats()
		t.schedRunsBase, t.schedRetryBase = st.RunsTotal, st.RetriesTotal
	}
	t0 := time.Now()
	cur := &cursor{total: len(in.queries), deadline: t0.Add(time.Duration(cfg.seconds) * time.Second)}
	var wg sync.WaitGroup
	var searchers sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		searchers.Add(1)
		go func() {
			defer searchers.Done()
			for {
				i, ok := cur.claim()
				if !ok {
					return
				}
				q := in.queries[i%len(in.queries)]
				op := ops.Add(1)
				// Traced HTTP runs alternate rounds between the server and
				// direct manager calls: the first give the server's spans,
				// the second the engine's matching counters, and every
				// query is searched once per round either way.
				direct := !w.http || (tr != nil && (i/len(in.queries))%2 == 1)
				start := time.Now()
				var r reply
				var err error
				if direct {
					r, err = s.searchDirect(ctx, q.elems)
				} else {
					r, err = s.searchHTTP(ctx, op, q.elems)
				}
				end := time.Now()
				if err == nil {
					if e := checkShape(q.elems, r.hits, in.byName); e != nil {
						chk.fail("query %d: %v", i%len(in.queries), e)
					}
				}
				if tr != nil && err == nil {
					if direct {
						tr.add(op, "segment.search", "client.search", start, end)
					}
					tr.addSpan(span{Op: op, Name: "client.search", Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0)),
						EngineNS: int64(r.stats.RefineTime + r.stats.PostprocTime)})
				}
				t.mu.Lock()
				t.searches++
				if err != nil {
					t.searchFail++
					t.failure(err)
				} else {
					t.searchLat = append(t.searchLat, end.Sub(start))
					if tr != nil {
						t.engine.add(r)
					}
				}
				t.mu.Unlock()
			}
		}()
	}
	stopSampler := make(chan struct{})
	if tr != nil && s.reg != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					d := s.mgr().MaintenanceDebt()
					t.mu.Lock()
					t.sealedMax = max(t.sealedMax, d.SealedSegments)
					t.mu.Unlock()
				}
			}
		}()
	}
	if len(in.writes) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writer(s, in, w.writeRate, t0, tr, ops, t)
		}()
	}
	searchers.Wait()
	t.searchWall = time.Since(t0)
	close(stopSampler)
	wg.Wait()
	t.cacheAfter = s.cacheStats()
}

// writer replays the write script open loop: write j is due at j/rate
// after the start and its latency counts from then, so a stall also
// charges the writes queued behind it.
func writer(s *served, in *inputs, rate float64, t0 time.Time, tr *tracer, ops *atomic.Int64, t *tally) {
	ctx := context.Background()
	var nIns, nDel int
	for j, wop := range in.writes {
		due := t0.Add(time.Duration(float64(j) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		start := time.Now()
		op := ops.Add(1)
		var err error
		// Traced runs rotate writes through the layers' entry points so
		// each one gets spans: the HTTP handler, Collection.Insert and
		// Manager.Insert for inserts; the handler and Manager.Delete for
		// deletes. Every path applies the same mutation.
		via := 0
		if tr != nil {
			if wop.insert {
				via = nIns % 3
			} else {
				via = nDel % 2
			}
		}
		var layer string
		switch {
		case wop.insert && via == 0:
			err = s.insertHTTP(ctx, op, wop.name, wop.elems)
		case wop.insert && via == 1:
			layer = "collection.insert"
			_, err = s.reg.Default().Insert(wop.name, wop.elems)
		case wop.insert:
			layer = "segment.insert"
			_, err = s.mgr().Insert(wop.name, wop.elems)
		case via == 0:
			err = s.deleteHTTP(ctx, op, wop.name)
		default:
			layer = "segment.delete"
			var ok bool
			ok, err = s.mgr().Delete(wop.name)
			if err == nil && !ok {
				err = fmt.Errorf("delete %s: not live", wop.name)
			}
		}
		var durErr *segment.DurabilityError
		if errors.As(err, &durErr) {
			err = nil // applied; only a follow-on durability step failed
		}
		end := time.Now()
		if tr != nil && err == nil {
			if layer != "" {
				tr.add(op, layer, "client.write", start, end)
			}
			tr.add(op, "client.write", "", start, end)
		}
		t.mu.Lock()
		if wop.insert {
			nIns++
			t.inserts++
			if err != nil {
				t.insertFail++
			}
		} else {
			nDel++
			t.deletes++
			if err != nil {
				t.deleteFail++
			}
		}
		if err != nil {
			t.failure(err)
		} else {
			t.writeLat = append(t.writeLat, end.Sub(due))
		}
		t.late = append(t.late, max(0, start.Sub(due)))
		t.mu.Unlock()
	}
}

func (s *served) cacheStats() sim.CacheStats {
	if s.eng != nil {
		return s.eng.SimCacheStats()
	}
	return s.mgr().SimCacheStats()
}

// drain finishes the maintenance the writes left: a compaction and a
// checkpoint, timed as the segment layer's spans.
func drain(s *served, tr *tracer, t *tally) error {
	start := time.Now()
	if err := s.mgr().Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	mid := time.Now()
	if err := s.mgr().Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tr.add(0, "segment.compact", "drain", start, mid)
	tr.add(0, "segment.checkpoint", "drain", mid, time.Now())
	if sc := s.reg.Scheduler(); sc != nil {
		st := sc.Stats()
		t.schedRuns, t.schedRetries = st.RunsTotal-t.schedRunsBase, st.RetriesTotal-t.schedRetryBase
	}
	return nil
}

// stateCheck compares the served collection with what the seed and the
// write script imply: the live names, and every scripted name read back
// over HTTP (the set when live, 404 otherwise).
func stateCheck(s *served, in *inputs, chk *checker) {
	got := map[string]bool{}
	for _, rec := range s.mgr().LiveSets() {
		got[rec.Name] = true
	}
	if !reflect.DeepEqual(got, in.final) {
		missing, extra := 0, 0
		for n := range in.final {
			if !got[n] {
				missing++
			}
		}
		for n := range got {
			if !in.final[n] {
				extra++
			}
		}
		chk.fail("state: live sets differ from the write script: %d missing, %d unexpected", missing, extra)
	}
	touched := map[string]bool{}
	for _, op := range in.writes {
		touched[op.name] = true
	}
	names := make([]string, 0, len(touched))
	for n := range touched {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		elems, ok, err := s.getSet(context.Background(), n)
		switch {
		case err != nil:
			chk.fail("state: get %s: %v", n, err)
		case ok != in.final[n]:
			chk.fail("state: get %s: live=%v, want %v", n, ok, in.final[n])
		case ok && !reflect.DeepEqual(elems, in.byName[n]):
			chk.fail("state: get %s: elements differ", n)
		}
	}
}

// restartCheck searches every query, closes the server and registry
// gracefully, reopens the data directory and searches again: the answers
// must be identical.
func restartCheck(s *served, in *inputs, chk *checker) {
	searchAll := func() ([][]hit, bool) {
		out := make([][]hit, len(in.queries))
		for i, q := range in.queries {
			r, err := s.searchHTTP(context.Background(), 0, q.elems)
			if err != nil {
				chk.fail("restart check: query %d: %v", i, err)
				return nil, false
			}
			out[i] = r.hits
		}
		return out, true
	}
	before, ok := searchAll()
	if !ok {
		return
	}
	if err := s.closeServing(); err != nil {
		chk.fail("restart check: close: %v", err)
		return
	}
	if err := s.openRegistry(nil); err != nil {
		chk.fail("restart check: reopen: %v", err)
		return
	}
	after, ok := searchAll()
	if !ok {
		return
	}
	for i := range before {
		if !reflect.DeepEqual(before[i], after[i]) {
			chk.fail("restart check: query %d answers differ after reopen", i)
		}
	}
}

func vocabulary(live map[string][]string) []string {
	seen := map[string]bool{}
	for _, elems := range live {
		for _, e := range elems {
			seen[e] = true
		}
	}
	out := make([]string, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// simProbePairs is the size of the fixed vocabulary-pair sample timed
// through the similarity function.
const simProbePairs = 20000

// probeLayers times the index and similarity layers on their own after
// the timed phase: Neighbors over every query token from an uncached index
// over the live vocabulary, and the similarity function over a fixed
// sample of vocabulary pairs.
func probeLayers(w workload, in *inputs, vocab []string, tr *tracer, t *tally) {
	dict, err := sets.NewDictionaryFromTokens(vocab)
	if err != nil {
		panic(err) // vocabulary() returns distinct tokens
	}
	rng := rand.New(rand.NewSource(streamSeed(0, streamSim)))
	pairs := make([][2]string, simProbePairs)
	for i := range pairs {
		pairs[i] = [2]string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]}
	}
	var src index.NeighborSource
	var pairSim func() float64
	if w.http {
		src = index.NewDynamicExact(dict, in.vec)
		vecs := make([][2][]float32, len(pairs))
		for i, p := range pairs {
			vecs[i][0], _ = in.vec(p[0])
			vecs[i][1], _ = in.vec(p[1])
		}
		pairSim = func() (sum float64) {
			for _, v := range vecs {
				sum += sim.Cosine(v[0], v[1])
			}
			return sum
		}
	} else {
		src = index.NewDynamicFunc(dict, sim.EditSimilarity{})
		pairSim = func() (sum float64) {
			for _, p := range pairs {
				sum += sim.EditSimilarity{}.Sim(p[0], p[1])
			}
			return sum
		}
	}
	for i, q := range in.queries {
		start := time.Now()
		n := 0
		for _, tok := range q.elems {
			n += len(src.Neighbors(tok, alpha))
		}
		tr.add(int64(-1-i), "index.retrieve", "probe", start, time.Now())
		t.probeNeighbors += n
	}
	start := time.Now()
	probeSink = pairSim()
	tr.add(-1, "sim.pairs", "probe", start, time.Now())
}

// probeSink keeps the similarity probe's result live.
var probeSink float64
