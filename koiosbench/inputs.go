package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/datagen"
	"repro/internal/sets"
)

// workload is one fixed traffic mix. The README explains why each exists.
type workload struct {
	name  string
	kind  datagen.Kind
	scale float64
	// served over HTTP from a durable registry with cosine similarity;
	// false means the in-memory koios library with edit similarity.
	http    bool
	clients int
	// bands make up the fixed query list: each draws n sets, one per
	// stratum of equal count among the seeded sets of at least minCard
	// elements ranked in [lo, hi) by cardinality, so every seed gets the
	// same size mix.
	bands []band
	// dirty is the share of query elements replaced by a same-cluster
	// sibling (datagen.Benchmark.Dirty); 0 keeps queries identical to
	// their source sets.
	dirty float64
	// writeRate is the open-loop writer's rate in writes per second;
	// holdOut is the share of the dataset kept out of the seed for the
	// writer to insert. Both zero on read-only workloads.
	writeRate float64
	holdOut   float64
	// dataSeed is the datagen seed of the workload's collection.
	dataSeed int64
}

var workloads = []workload{
	{name: "dblp-read", kind: datagen.DBLP, scale: 0.1, http: true, clients: 2,
		bands: []band{{0, 1, 40, 0}}, dataSeed: 101},
	{name: "twitter-mixed", kind: datagen.Twitter, scale: 1.0, http: true, clients: 1,
		bands: []band{{0, 1, 60, 0}}, writeRate: 250, holdOut: 0.1, dataSeed: 103},
	// Opendata's power-law tail would make a short query list's figures
	// hinge on which few giant sets a seed draws, and its queries above
	// about 190 elements cut the lazy stream and cost several times more
	// than those below. Two bands fix the mix: 36 mid-size queries, and 12
	// from the smaller 40% of the sets with at least 200 elements.
	{name: "opendata-fuzzy", kind: datagen.OpenData, scale: 0.1, clients: 2,
		bands: []band{{0.5, 0.9, 36, 0}, {0, 0.4, 12, 200}}, dirty: 0.25, dataSeed: 102},
}

type band struct {
	lo, hi  float64
	n       int
	minCard int
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// query is one entry of the fixed query list. source names the set the
// query was drawn from; clean says the query equals that set.
type query struct {
	elems  []string
	source string
	clean  bool
}

// writeOp is one step of the write script: an insert of a held-out (or
// previously deleted) set, or a delete of a live one.
type writeOp struct {
	insert bool
	name   string
	elems  []string
}

// inputs is everything a run feeds the program, derived from the seed alone.
type inputs struct {
	seedSets []sets.Set
	// byName holds every set the run may ever make live (seed and held
	// out); names are unique per content.
	byName  map[string][]string
	queries []query
	writes  []writeOp
	// final is the live name set the seed plus the write script imply.
	final map[string]bool
	vec   func(string) ([]float32, bool)
	// oracleSample indexes the queries the oracle checks on every run.
	oracleSample []int
}

// streamSeed derives the seed of one input stream from --seed. Each stream
// has its own offset so that changing one part of the inputs does not
// reshuffle the others. The collection itself is a fixed fixture per
// workload (workload.dataSeed): regenerating it per seed made run-to-run
// figures swing with the collection rather than with the program.
func streamSeed(seed, stream int64) int64 { return seed*7919 + stream }

const (
	streamQueries = 1
	streamDirty   = 2
	streamHoldOut = 3
	streamWrites  = 4
	streamOracle  = 5
	streamSim     = 6
)

// oracleSampleSize is how many queries of the list the oracle checks on
// every run.
const oracleSampleSize = 4

func makeInputs(w workload, seed int64, seconds int) (*inputs, error) {
	spec := datagen.DefaultSpec(w.kind, w.scale)
	spec.Seed = w.dataSeed
	ds := datagen.Generate(spec)
	all := ds.Repo.Sets()
	in := &inputs{byName: make(map[string][]string, len(all)), vec: ds.Model.Vector}
	for _, s := range all {
		in.byName[s.Name] = s.Elements
	}

	held := map[string]bool{}
	if w.holdOut > 0 {
		rng := rand.New(rand.NewSource(streamSeed(seed, streamHoldOut)))
		for _, i := range rng.Perm(len(all))[:int(w.holdOut*float64(len(all)))] {
			held[all[i].Name] = true
		}
	}
	var seedNames []string
	for _, s := range all {
		if !held[s.Name] {
			in.seedSets = append(in.seedSets, sets.Set{Name: s.Name, Elements: s.Elements})
			seedNames = append(seedNames, s.Name)
		}
	}

	// Queries come from seeded sets only: a held-out set's tokens may not
	// be in the collection's vocabulary yet when it is searched.
	rng := rand.New(rand.NewSource(streamSeed(seed, streamQueries)))
	var picked []sets.Set
	for _, b := range w.bands {
		got := stratified(in.seedSets, b, rng)
		if got == nil {
			return nil, fmt.Errorf("%s: no set in query band %+v", w.name, b)
		}
		picked = append(picked, got...)
	}
	rng.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
	bench := &datagen.Benchmark{Kind: w.kind}
	for _, s := range picked {
		bench.Queries = append(bench.Queries, datagen.Query{SourceSet: -1, Interval: -1, Elements: s.Elements})
	}
	if w.dirty > 0 {
		bench = bench.Dirty(ds, w.dirty, streamSeed(seed, streamDirty))
	}
	for i, q := range bench.Queries {
		in.queries = append(in.queries, query{elems: q.Elements, source: picked[i].Name, clean: w.dirty == 0})
	}

	in.final = make(map[string]bool, len(seedNames))
	for _, n := range seedNames {
		in.final[n] = true
	}
	if w.writeRate > 0 {
		// The script never deletes a query's source set, so every query
		// element keeps occurring in a live set: the cosine index gives
		// an element outside the live vocabulary no semantic neighbours
		// at all, and its answers would then fall short of the oracle's.
		var deletable []string
		sources := map[string]bool{}
		for _, q := range in.queries {
			sources[q.source] = true
		}
		for _, n := range seedNames {
			if !sources[n] {
				deletable = append(deletable, n)
			}
		}
		in.writes = writeScript(deletable, held, int(w.writeRate*float64(seconds)), in.byName,
			rand.New(rand.NewSource(streamSeed(seed, streamWrites))), in.final)
	}

	rng = rand.New(rand.NewSource(streamSeed(seed, streamOracle)))
	in.oracleSample = rng.Perm(len(in.queries))[:oracleSampleSize]
	return in, nil
}

// stratified sorts the sets by cardinality, keeps those ranked in the
// band and draws one set from each of b.n strata of equal count: the query
// list has the same size profile under every seed, so run-to-run figures
// do not swing with which large sets happened to be drawn. A band with
// fewer sets than strata draws some sets twice.
func stratified(all []sets.Set, b band, rng *rand.Rand) []sets.Set {
	var sorted []sets.Set
	for _, s := range all {
		if len(s.Elements) >= b.minCard {
			sorted = append(sorted, s)
		}
	}
	sort.Slice(sorted, func(i, j int) bool {
		if len(sorted[i].Elements) != len(sorted[j].Elements) {
			return len(sorted[i].Elements) < len(sorted[j].Elements)
		}
		return sorted[i].Name < sorted[j].Name
	})
	sorted = sorted[int(b.lo*float64(len(sorted))):int(b.hi*float64(len(sorted)))]
	if len(sorted) == 0 {
		return nil
	}
	out := make([]sets.Set, 0, b.n)
	for k := 0; k < b.n; k++ {
		lo := k * len(sorted) / b.n
		hi := max((k+1)*len(sorted)/b.n, lo+1)
		out = append(out, sorted[lo+rng.Intn(hi-lo)])
	}
	return out
}

// writeScript alternates inserts and deletes: an insert takes the next set
// from the held-out pool, a delete removes a random deletable live set and
// returns it to the pool, so it may be inserted again later. live is
// updated to the state the script leaves behind.
func writeScript(deletable []string, held map[string]bool, n int, byName map[string][]string, rng *rand.Rand, live map[string]bool) []writeOp {
	var pool []string
	for name := range held {
		pool = append(pool, name)
	}
	sort.Strings(pool)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	liveList := append([]string(nil), deletable...)
	ops := make([]writeOp, 0, n)
	for j := 0; j < n; j++ {
		if j%2 == 0 {
			name := pool[0]
			pool = pool[1:]
			liveList = append(liveList, name)
			live[name] = true
			ops = append(ops, writeOp{insert: true, name: name, elems: byName[name]})
			continue
		}
		i := rng.Intn(len(liveList))
		name := liveList[i]
		liveList[i] = liveList[len(liveList)-1]
		liveList = liveList[:len(liveList)-1]
		delete(live, name)
		pool = append(pool, name)
		ops = append(ops, writeOp{name: name})
	}
	return ops
}
