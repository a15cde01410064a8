package kernels

import (
	"fmt"
	"math"

	"popt/internal/graph"
	"popt/internal/mem"
)

// PageRank constants match GAP's defaults.
const (
	prDamping = 0.85
	prIters   = 2 // the paper simulates a single steady-state iteration; we run two for stability
)

// NewPageRank builds the pull-direction PageRank workload (GAP pr.cc). Per
// iteration it first streams contributions (contrib[v] = rank[v]/outdeg)
// and then pulls: for every destination, sum contrib[src] over incoming
// neighbors. contrib is the single irregularly accessed array (Table II:
// 4 B elements, pull-only, transpose = CSR).
func NewPageRank(g *graph.Graph) *Workload {
	n := g.NumVertices()
	sp := mem.NewSpace()
	rankArr := sp.AllocBytes("rank", n, 4, false)
	contribArr := sp.AllocBytes("contrib", n, 4, true)
	oaArr := sp.AllocBytes("cscOA", n+1, 8, false)
	naArr := sp.AllocBytes("cscNA", g.NumEdges(), 4, false)

	rank := make([]float64, n)
	contrib := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	base := (1 - prDamping) / float64(n)

	w := &Workload{
		Name: "PR", G: g, Space: sp,
		Irregular: []*mem.Array{contribArr},
		RefAdj:    &g.Out,
		Pull:      true,
	}
	w.run = func(r *Runner) {
		for it := 0; it < prIters; it++ {
			// Contribution phase: streaming over vertices.
			for v := 0; v < n; v++ {
				r.Load(rankArr, v, PCStreamRead)
				d := g.Out.Degree(graph.V(v))
				if d == 0 {
					contrib[v] = 0
				} else {
					contrib[v] = rank[v] / float64(d)
				}
				r.Store(contribArr, v, PCStreamWrite)
				r.Tick(2)
			}
			// Pull phase: irregular contrib reads guided by the CSC. The
			// iterator yields each destination's sources plus the global
			// edge index its list starts at, which is the simulated
			// neighbor-array index.
			r.StartIteration()
			cscIt := g.In.IterFrom(0)
			for dst := 0; dst < n; dst++ {
				r.SetVertex(graph.V(dst))
				r.Load(oaArr, dst, PCOffsets)
				sum := 0.0
				srcs, lo := cscIt.Next()
				for i, src := range srcs {
					r.Load(naArr, int(lo)+i, PCNeighbors)
					r.Load(contribArr, int(src), PCIrregRead)
					sum += contrib[src]
					r.Tick(1)
				}
				rank[dst] = base + prDamping*sum
				r.Store(rankArr, dst, PCStreamWrite)
				r.Tick(2)
			}
		}
	}
	w.check = func() error { return checkPageRank(g, rank, prIters) }
	return w
}

// checkPageRank compares an iters-iteration rank vector against the
// independent golden. The two sum each vertex's in-edge contributions in
// different orders, so they may differ by rounding: each vertex may
// deviate by max(1e-12, its forward rounding-error bound), never more.
func checkPageRank(g *graph.Graph, rank []float64, iters int) error {
	golden := goldenPageRank(g, iters)
	roundings := prRoundings(g, iters)
	for v := range rank {
		// Kernel and golden each lie within gamma(m) of the exact value,
		// and the exact value within |golden|/(1-gamma(m)).
		gm := gamma(roundings[v])
		tol := max(1e-12, 2*gm/(1-gm)*math.Abs(golden[v]))
		if math.Abs(golden[v]-rank[v]) > tol {
			return fmt.Errorf("PR: rank[%d] = %g, golden %g (tolerance %g)", v, rank[v], golden[v], tol)
		}
	}
	var sum float64
	for _, x := range rank {
		sum += x
	}
	// Dangling mass escapes, so the sum is <= 1 + epsilon.
	if sum > 1+1e-9 || sum <= 0 {
		return fmt.Errorf("PR: rank mass %g out of range", sum)
	}
	return nil
}

// prRoundings bounds, per vertex, the rounding steps behind an
// iters-iteration float64 PageRank value, in the sense of Higham's
// recursive-summation analysis: the computed rank is within a relative
// gamma(m) of the exact one. One iteration at a vertex of in-degree k
// costs k+2 roundings in either formulation (the kernel: one division
// per contribution, k-1 additions, the damping multiply and the base
// add; the golden: a multiply and a division per share and k additions
// onto the base). Every term is nonnegative, so the inputs' relative
// error carries through the weighted sum unamplified: the count for the
// next iteration adds the worst count among the in-neighbors.
func prRoundings(g *graph.Graph, iters int) []int {
	n := g.NumVertices()
	cur, next := make([]int, n), make([]int, n)
	for it := 0; it < iters; it++ {
		inIt := g.In.IterFrom(0)
		for v := 0; v < n; v++ {
			srcs, _ := inIt.Next()
			worst := 0
			for _, s := range srcs {
				worst = max(worst, cur[s])
			}
			next[v] = len(srcs) + 2 + worst
		}
		cur, next = next, cur
	}
	return cur
}

// gamma is Higham's gamma_m = m*u/(1-m*u), with u = 2^-53 the float64 unit
// roundoff: the relative-error bound of m chained roundings.
func gamma(m int) float64 {
	mu := float64(m) * 0x1p-53
	return mu / (1 - mu)
}

// ConvergedPageRank runs a real (uninstrumented) PageRank to convergence —
// until the L1 rank delta drops below tol or maxIters passes — and returns
// the iteration count. It is the wall-clock baseline of Table IV.
func ConvergedPageRank(g *graph.Graph, tol float64, maxIters int) int {
	n := g.NumVertices()
	rank := make([]float64, n)
	contrib := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	base := (1 - prDamping) / float64(n)
	for it := 1; it <= maxIters; it++ {
		for v := 0; v < n; v++ {
			if d := g.Out.Degree(graph.V(v)); d > 0 {
				contrib[v] = rank[v] / float64(d)
			} else {
				contrib[v] = 0
			}
		}
		delta := 0.0
		cscIt := g.In.IterFrom(0)
		for dst := 0; dst < n; dst++ {
			sum := 0.0
			srcs, _ := cscIt.Next()
			for _, src := range srcs {
				sum += contrib[src]
			}
			nr := base + prDamping*sum
			delta += abs(nr - rank[dst])
			rank[dst] = nr
		}
		if delta < tol {
			return it
		}
	}
	return maxIters
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// goldenPageRank is an independent (uninstrumented, differently structured)
// reference: edge-centric accumulation over the out-adjacency.
func goldenPageRank(g *graph.Graph, iters int) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	base := (1 - prDamping) / float64(n)
	for it := 0; it < iters; it++ {
		for i := range next {
			next[i] = base
		}
		csrIt := g.Out.IterFrom(0)
		for u := 0; u < n; u++ {
			vs, _ := csrIt.Next()
			if len(vs) == 0 {
				continue
			}
			share := prDamping * rank[u] / float64(len(vs))
			for _, v := range vs {
				next[v] += share
			}
		}
		rank, next = next, rank
	}
	return rank
}
