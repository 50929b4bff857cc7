package main

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// bruteAssign tries every injection of rows into columns.
func bruteAssign(w [][]float64, n, m int) float64 {
	best := 0.0
	used := make([]bool, m)
	var rec func(i int, sum float64)
	rec = func(i int, sum float64) {
		if i == n {
			best = math.Max(best, sum)
			return
		}
		for j := 0; j < m; j++ {
			if !used[j] {
				used[j] = true
				rec(i+1, sum+w[i][j])
				used[j] = false
			}
		}
	}
	rec(0, 0)
	return best
}

func TestAssignMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(5)
		m := n + rng.Intn(3)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, m)
			for j := range w[i] {
				if rng.Float64() < 0.6 {
					w[i][j] = 0.8 + 0.2*rng.Float64()
				}
			}
		}
		if got, want := assign(w, n, m), bruteAssign(w, n, m); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: assign %v, brute force %v on %v", trial, got, want, w)
		}
	}
}

func TestEditSim(t *testing.T) {
	for _, c := range []struct {
		a, b string
		want float64
	}{{"kitten", "sitting", 1 - 3.0/7}, {"abc", "abc", 1}, {"", "x", 0}, {"flaw", "lawn", 0.5}} {
		if got := editSim(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("editSim(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestOracleEveryQuery serves each workload at a small scale, applies the
// whole write script, and checks every distinct query's answer against
// the oracle over every live set.
func TestOracleEveryQuery(t *testing.T) {
	scales := map[string]float64{"dblp-read": 0.05, "twitter-mixed": 0.1, "opendata-fuzzy": 0.05}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.scale = scales[w.name]
			if w.name == "opendata-fuzzy" {
				// At this scale no set reaches the large band's floor.
				w.bands = []band{{0.3, 1, 24, 0}}
			}
			in, err := makeInputs(w, 7, 2)
			if err != nil {
				t.Fatal(err)
			}
			chk := &checker{}
			s, err := setUp(w, in, t.TempDir(), nil, chk)
			if err != nil {
				t.Fatal(err)
			}
			defer s.closeServing()
			ctx := context.Background()
			for _, op := range in.writes {
				if op.insert {
					err = s.insertHTTP(ctx, 0, op.name, op.elems)
				} else {
					err = s.deleteHTTP(ctx, 0, op.name)
				}
				if err != nil {
					t.Fatal(err)
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
			for i, q := range in.queries {
				r, err := s.search(ctx, 0, q.elems)
				if err != nil {
					t.Fatal(err)
				}
				if err := o.checkTopK(q, r.hits, live, vocab, topK); err != nil {
					t.Errorf("query %d: %v", i, err)
				}
				if i == 0 && len(r.hits) > 1 {
					// The oracle must reject a raised score and a
					// dropped best answer.
					raised := append([]hit(nil), r.hits...)
					raised[len(raised)-1].score += 0.5
					if o.checkTopK(q, raised, live, vocab, topK) == nil {
						t.Error("oracle accepted a raised score")
					}
					if o.checkTopK(q, r.hits[1:], live, vocab, topK) == nil {
						t.Error("oracle accepted an answer missing its best set")
					}
				}
			}
			for _, e := range chk.errs {
				t.Error(e)
			}
		})
	}
}
