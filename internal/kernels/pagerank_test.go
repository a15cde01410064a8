package kernels

import (
	"testing"

	"popt/internal/graph"
)

// pullPageRank recomputes the kernel's pull-direction PageRank with
// seedable defects: iters iterations under the given damping factor and,
// when drop >= 0, the final iteration loses vertex drop's smallest
// in-edge contribution.
func pullPageRank(g *graph.Graph, iters int, damping float64, drop int) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	contrib := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	base := (1 - damping) / float64(n)
	for it := 0; it < iters; it++ {
		for v := 0; v < n; v++ {
			contrib[v] = 0
			if d := g.Out.Degree(graph.V(v)); d > 0 {
				contrib[v] = rank[v] / float64(d)
			}
		}
		cscIt := g.In.IterFrom(0)
		for dst := 0; dst < n; dst++ {
			srcs, _ := cscIt.Next()
			skip := -1
			if dst == drop && it == iters-1 {
				for i, src := range srcs {
					if skip < 0 || contrib[src] < contrib[srcs[skip]] {
						skip = i
					}
				}
			}
			sum := 0.0
			for i, src := range srcs {
				if i != skip {
					sum += contrib[src]
				}
			}
			rank[dst] = base + damping*sum
		}
	}
	return rank
}

// maxInDegree returns the vertex with the most in-edges: the hub whose
// rank carries the loosest rounding tolerance.
func maxInDegree(g *graph.Graph) int {
	hub := 0
	for v := 0; v < g.NumVertices(); v++ {
		if g.In.Degree(graph.V(v)) > g.In.Degree(graph.V(hub)) {
			hub = v
		}
	}
	return hub
}

// TestPageRankCheckRejectsSeededDefects pins that the rounding-error
// tolerance of the PageRank check is still tight enough to catch real
// bugs, on the tiny and the default-scale DBP inputs: the exact
// computation passes, and each seeded defect fails — even the smallest
// in-edge contribution dropped at the hub, where the tolerance is
// loosest.
func TestPageRankCheckRejectsSeededDefects(t *testing.T) {
	graphs := []*graph.Graph{
		graph.PowerLaw(1<<11, 8, 2.0, 42), // tiny-scale DBP
		graph.PowerLaw(1<<17, 7, 2.0, 42), // default-scale DBP
	}
	for _, g := range graphs {
		hub := maxInDegree(g)
		if g.In.Degree(graph.V(hub)) < 2 {
			t.Fatalf("%s: hub has in-degree %d; dropping an edge needs two", g.Name, g.In.Degree(graph.V(hub)))
		}
		if err := checkPageRank(g, pullPageRank(g, prIters, prDamping, -1), prIters); err != nil {
			t.Fatalf("%s: exact PageRank rejected: %v", g.Name, err)
		}
		w := NewPageRank(g)
		w.Run(&Runner{})
		if err := w.Check(); err != nil {
			t.Fatalf("%s: kernel PageRank rejected: %v", g.Name, err)
		}
		for _, d := range []struct {
			name string
			rank []float64
		}{
			{"dropped in-edge contribution", pullPageRank(g, prIters, prDamping, hub)},
			{"skipped iteration", pullPageRank(g, prIters-1, prDamping, -1)},
			{"perturbed damping factor", pullPageRank(g, prIters, prDamping*(1+1e-9), -1)},
		} {
			if err := checkPageRank(g, d.rank, prIters); err == nil {
				t.Errorf("%s: check accepted a %s", g.Name, d.name)
			}
		}
	}
}
