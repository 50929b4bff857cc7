package main

import (
	"fmt"
	"math"
	"sort"
)

// The oracle computes semantic overlap from first principles: its own
// similarity functions, its own graph decomposition and its own assignment
// solver. It shares no code with the engine's filters, index, similarity
// cache or matching package, so an answer that agrees with it is evidence,
// not a restatement.

// simFn is an element similarity in [0,1].
type simFn func(a, b string) float64

// cosineSim is the cosine of the embedding vectors, clamped at 0; tokens
// without a vector match only themselves.
func cosineSim(vec func(string) ([]float32, bool)) simFn {
	return func(a, b string) float64 {
		if a == b {
			return 1
		}
		va, oka := vec(a)
		vb, okb := vec(b)
		if !oka || !okb || len(va) != len(vb) {
			return 0
		}
		var dot, na, nb float64
		for i := range va {
			x, y := float64(va[i]), float64(vb[i])
			dot += x * y
			na += x * x
			nb += y * y
		}
		if na == 0 || nb == 0 || dot <= 0 {
			return 0
		}
		return math.Min(1, dot/math.Sqrt(na*nb))
	}
}

// editSim is 1 − lev(a,b)/max(|a|,|b|) over bytes, by the textbook
// dynamic program.
func editSim(a, b string) float64 {
	if a == b {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return 1 - float64(prev[len(b)])/float64(max(len(a), len(b)))
}

// editCanReach reports whether two strings' lengths allow an edit
// similarity of at least a: the distance is at least the length gap.
func editCanReach(x, y string, a float64) bool {
	lx, ly := len(x), len(y)
	return 1-float64(max(lx, ly)-min(lx, ly))/float64(max(lx, ly)) >= a
}

// boundaryEps widens the α cut on both sides: a pair within it of α may
// fall either way under a different floating-point evaluation order, so
// the oracle computes the overlap with and without such pairs and accepts
// anything between.
const boundaryEps = 1e-6

// scoreTol is the per-query-element tolerance on a reported score.
const scoreTol = 1e-6

type oracle struct {
	alpha float64
	sim   simFn
	edit  bool
}

// edgeTo is one similarity of a query element to a vocabulary token.
type edgeTo struct {
	q   int
	sim float64
}

// prepared holds, for one query, each vocabulary token's similarities to
// the query elements at or above α−boundaryEps.
type prepared struct {
	q   []string
	inv map[string][]edgeTo
}

func (o *oracle) prepare(q []string, vocab []string) *prepared {
	p := &prepared{q: q, inv: map[string][]edgeTo{}}
	for qi, x := range q {
		for _, y := range vocab {
			if o.edit && !editCanReach(x, y, o.alpha-boundaryEps) {
				continue
			}
			if s := o.sim(x, y); s >= o.alpha-boundaryEps {
				p.inv[y] = append(p.inv[y], edgeTo{qi, s})
			}
		}
	}
	return p
}

// overlap returns lower and upper envelopes of the exact semantic overlap
// of the prepared query with c: equal unless a pair sits within
// boundaryEps of α.
func (o *oracle) overlap(p *prepared, c []string) (lo, hi float64) {
	var edges []pairEdge
	near := false
	for ci, y := range c {
		for _, e := range p.inv[y] {
			edges = append(edges, pairEdge{e.q, ci, e.sim})
			if e.sim < o.alpha+boundaryEps {
				near = true
			}
		}
	}
	solve := func(cut float64) float64 {
		// Union-find over query nodes [0,|Q|) and set nodes |Q|+[0,|C|):
		// the matching decomposes over connected components.
		parent := map[int]int{}
		find := func(x int) int {
			if _, ok := parent[x]; !ok {
				parent[x] = x
			}
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		nq := len(p.q)
		for _, e := range edges {
			if e.sim >= cut {
				parent[find(e.q)] = find(nq + e.c)
			}
		}
		comps := map[int][]pairEdge{}
		for _, e := range edges {
			if e.sim >= cut {
				r := find(e.q)
				comps[r] = append(comps[r], e)
			}
		}
		total := 0.0
		for _, es := range comps {
			total += maxWeightMatching(es)
		}
		return total
	}
	hi = solve(o.alpha - boundaryEps)
	if !near {
		return hi, hi
	}
	return solve(o.alpha + boundaryEps), hi
}

// pairEdge is one element pair of a query and a set with its similarity.
type pairEdge struct {
	q, c int
	sim  float64
}

// maxWeightMatching solves one component: a dense assignment over its
// distinct endpoints, absent pairs weighing 0.
func maxWeightMatching(es []pairEdge) float64 {
	rows, cols := map[int]int{}, map[int]int{}
	for _, e := range es {
		if _, ok := rows[e.q]; !ok {
			rows[e.q] = len(rows)
		}
		if _, ok := cols[e.c]; !ok {
			cols[e.c] = len(cols)
		}
	}
	n, m := len(rows), len(cols)
	transpose := n > m
	if transpose {
		n, m = m, n
	}
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, m)
	}
	for _, e := range es {
		i, j := rows[e.q], cols[e.c]
		if transpose {
			i, j = j, i
		}
		w[i][j] = math.Max(w[i][j], e.sim)
	}
	return assign(w, n, m)
}

// assign is the O(n²m) Hungarian method with potentials (n ≤ m) on costs
// −w: it returns the largest total weight of an assignment of every row to
// a distinct column.
func assign(w [][]float64, n, m int) float64 {
	inf := math.Inf(1)
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1)
	way := make([]int, m+1)
	minv := make([]float64, m+1)
	used := make([]bool, m+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0, delta, j1 := p[j0], inf, 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				if cur := -w[i0-1][j-1] - u[i0] - v[j]; cur < minv[j] {
					minv[j], way[j] = cur, j0
				}
				if minv[j] < delta {
					delta, j1 = minv[j], j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	total := 0.0
	for j := 1; j <= m; j++ {
		if p[j] != 0 {
			total += w[p[j]-1][j-1]
		}
	}
	return total
}

// checkTopK verifies one answer against the exact overlaps of every live
// set. live maps set names to elements.
func (o *oracle) checkTopK(q query, hits []hit, live map[string][]string, vocab []string, k int) error {
	if err := checkShape(q.elems, hits, live); err != nil {
		return err
	}
	p := o.prepare(q.elems, vocab)
	tol := scoreTol * float64(len(q.elems))
	returned := map[string]bool{}
	for _, h := range hits {
		returned[h.name] = true
		lo, hi := o.overlap(p, live[h.name])
		if h.score > hi+tol {
			return fmt.Errorf("set %s: score %.9f exceeds exact overlap %.9f", h.name, h.score, hi)
		}
		if h.verified && h.score < lo-tol {
			return fmt.Errorf("set %s: verified score %.9f below exact overlap %.9f", h.name, h.score, lo)
		}
	}
	// Every set left out must not beat the k-th answer (ties accepted);
	// with fewer than k answers, every set left out has overlap 0.
	kth := 0.0
	if len(hits) == k {
		kth = hits[k-1].score
	}
	names := make([]string, 0, len(live))
	for name := range live {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if returned[name] {
			continue
		}
		if lo, _ := o.overlap(p, live[name]); lo > kth+tol {
			return fmt.Errorf("set %s left out with exact overlap %.9f above the k-th score %.9f", name, lo, kth)
		}
	}
	if q.clean && live[q.source] != nil && !returned[q.source] && kth < float64(len(q.elems))-tol {
		return fmt.Errorf("source set %s of a clean query not returned", q.source)
	}
	if q.clean && returned[q.source] {
		for _, h := range hits {
			if h.name == q.source && math.Abs(h.score-float64(len(q.elems))) > tol {
				return fmt.Errorf("source set %s scored %.9f, want |Q| = %d", q.source, h.score, len(q.elems))
			}
		}
	}
	return nil
}

// checkShape is the cheap part of the oracle, applied to every answer of
// a run: known live names, no duplicates, scores in (0, min(|Q|,|C|)],
// sorted best first, at most k answers.
func checkShape(q []string, hits []hit, known map[string][]string) error {
	if len(hits) > topK {
		return fmt.Errorf("%d answers for k=%d", len(hits), topK)
	}
	seen := map[string]bool{}
	for i, h := range hits {
		c, ok := known[h.name]
		if !ok {
			return fmt.Errorf("answer %q is not a known set", h.name)
		}
		if seen[h.name] {
			return fmt.Errorf("answer %q returned twice", h.name)
		}
		seen[h.name] = true
		limit := float64(min(len(q), len(c)))
		if h.score <= 0 || h.score > limit+scoreTol*limit {
			return fmt.Errorf("set %s: score %.9f outside (0, min(|Q|,|C|) = %v]", h.name, h.score, limit)
		}
		if i > 0 && h.score > hits[i-1].score {
			return fmt.Errorf("answers not sorted: %.9f after %.9f", h.score, hits[i-1].score)
		}
	}
	return nil
}
