package kernels

import (
	"fmt"
	"math"

	"popt/internal/graph"
	"popt/internal/mem"
)

// NewPageRankOrdered is PageRank-pull with an explicit outer-loop schedule,
// used for the HATS-BDFS comparison (Fig. 12b): HATS reorders destination
// processing on the fly in hardware; the result is unchanged because the
// pull iteration reads contributions frozen at the iteration start.
func NewPageRankOrdered(g *graph.Graph, order []graph.V) *Workload {
	n := g.NumVertices()
	if len(order) != n {
		panic("kernels: schedule must cover every vertex")
	}
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
		Name: "PR-BDFS", G: g, Space: sp,
		Irregular: []*mem.Array{contribArr},
		RefAdj:    &g.Out,
		Pull:      true,
	}
	w.run = func(r *Runner) {
		// The schedule visits destinations out of order, so the pull phase
		// uses random access (Start + Neighs) rather than the sequential
		// iterator; the simulated addresses are the same either way.
		for it := 0; it < prIters; it++ {
			for v := 0; v < n; v++ {
				r.Load(rankArr, v, PCStreamRead)
				if d := g.Out.Degree(graph.V(v)); d == 0 {
					contrib[v] = 0
				} else {
					contrib[v] = rank[v] / float64(d)
				}
				r.Store(contribArr, v, PCStreamWrite)
				r.Tick(2)
			}
			r.StartIteration()
			for _, dst := range order {
				r.SetVertex(dst)
				r.Load(oaArr, int(dst), PCOffsets)
				sum := 0.0
				lo := g.In.Start(dst)
				for i, src := range g.In.Neighs(dst) {
					r.Load(naArr, int(lo)+i, PCNeighbors)
					r.Load(contribArr, int(src), PCIrregRead)
					sum += contrib[src]
					r.Tick(1)
				}
				rank[dst] = base + prDamping*sum
				r.Store(rankArr, int(dst), PCStreamWrite)
				r.Tick(2)
			}
		}
	}
	w.check = func() error {
		golden := goldenPageRank(g, prIters)
		for v := 0; v < n; v++ {
			if math.Abs(golden[v]-rank[v]) > 1e-12 {
				return fmt.Errorf("PR-BDFS: rank[%d] = %g, golden %g", v, rank[v], golden[v])
			}
		}
		return nil
	}
	return w
}

// NewPageRankTiled is PageRank-pull over a CSR-segmented graph (Fig. 13):
// the pull phase runs once per source-range tile, confining irregular
// contrib accesses to the tile's range; per-destination partial sums
// accumulate across tiles in a streaming array.
func NewPageRankTiled(g *graph.Graph, seg *graph.Segmented) *Workload {
	n := g.NumVertices()
	sp := mem.NewSpace()
	rankArr := sp.AllocBytes("rank", n, 4, false)
	contribArr := sp.AllocBytes("contrib", n, 4, true)
	sumsArr := sp.AllocBytes("sums", n, 8, false)
	oaArr := sp.AllocBytes("cscOA", n+1, 8, false)
	naArr := sp.AllocBytes("cscNA", g.NumEdges(), 4, false)

	rank := make([]float64, n)
	contrib := make([]float64, n)
	sums := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	base := (1 - prDamping) / float64(n)

	w := &Workload{
		Name: fmt.Sprintf("PR-tiled-%d", len(seg.Tiles)), G: g, Space: sp,
		Irregular: []*mem.Array{contribArr},
		RefAdj:    &g.Out,
		Pull:      true,
	}
	w.run = func(r *Runner) {
		for it := 0; it < prIters; it++ {
			for v := 0; v < n; v++ {
				r.Load(rankArr, v, PCStreamRead)
				if d := g.Out.Degree(graph.V(v)); d == 0 {
					contrib[v] = 0
				} else {
					contrib[v] = rank[v] / float64(d)
				}
				r.Store(contribArr, v, PCStreamWrite)
				sums[v] = 0
				r.Store(sumsArr, v, PCStreamWrite)
				r.Tick(2)
			}
			for t := range seg.Tiles {
				r.SetTile(t)
				r.StartIteration()
				tin := &seg.Tiles[t].In
				tinIt := tin.IterFrom(0)
				for dst := 0; dst < n; dst++ {
					r.SetVertex(graph.V(dst))
					r.Load(oaArr, dst, PCOffsets)
					partial := 0.0
					srcs, lo := tinIt.Next()
					for i, src := range srcs {
						r.Load(naArr, int(lo)+i, PCNeighbors)
						r.Load(contribArr, int(src), PCIrregRead)
						partial += contrib[src]
						r.Tick(1)
					}
					if len(srcs) > 0 {
						sums[dst] += partial
						r.Load(sumsArr, dst, PCStreamRead)
						r.Store(sumsArr, dst, PCStreamWrite)
					}
					r.Tick(1)
				}
			}
			for dst := 0; dst < n; dst++ {
				r.Load(sumsArr, dst, PCStreamRead)
				rank[dst] = base + prDamping*sums[dst]
				r.Store(rankArr, dst, PCStreamWrite)
				r.Tick(2)
			}
		}
	}
	w.check = func() error {
		golden := goldenPageRank(g, prIters)
		for v := 0; v < n; v++ {
			if math.Abs(golden[v]-rank[v]) > 1e-9 {
				return fmt.Errorf("PR-tiled: rank[%d] = %g, golden %g", v, rank[v], golden[v])
			}
		}
		return nil
	}
	return w
}
