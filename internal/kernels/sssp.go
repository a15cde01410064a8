package kernels

import (
	"fmt"

	"popt/internal/graph"
	"popt/internal/mem"
)

// ssspMaxRounds caps simulated Bellman-Ford rounds (after k rounds the
// distances are exactly the shortest paths using at most k edges, which
// gives a precise golden model even without convergence).
const ssspMaxRounds = 8

// infDist32 marks unreached vertices.
const infDist32 = ^uint32(0)

// EdgeWeight returns the deterministic weight of edge (src, dst) in
// [1, 16]. Weights are a pure hash of the endpoints, so the CSR and CSC
// views agree without storing a weights array per direction.
func EdgeWeight(src, dst graph.V) uint32 {
	x := uint64(src)*0x9E3779B97F4A7C15 ^ uint64(dst)*0xC2B2AE3D27D4EB4F
	x ^= x >> 29
	return uint32(x%16) + 1
}

// NewSSSP builds a frontier-based Bellman-Ford single-source shortest
// paths workload (the round-synchronous core of delta-stepping-style SSSP
// frameworks). Another beyond-Table-II kernel: the pull relaxation reads
// dist of incoming neighbors — irregular, transpose-predictable — plus
// the frontier of recently-improved vertices. Irregular streams: the 4 B
// dist array and the 1-bit frontier.
func NewSSSP(g *graph.Graph) *Workload {
	n := g.NumVertices()
	sp := mem.NewSpace()
	distArr := sp.AllocBytes("dist", n, 4, true)
	frontierArr := sp.Alloc("frontier", n, 1, true)
	oaArr := sp.AllocBytes("cscOA", n+1, 8, false)
	naArr := sp.AllocBytes("cscNA", g.NumEdges(), 4, false)
	wtArr := sp.AllocBytes("weights", g.NumEdges(), 4, false)

	dist := make([]uint32, n)
	next := make([]uint32, n)
	frontier := make([]bool, n)
	nextFrontier := make([]bool, n)
	rounds := 0
	source := graph.V(0)

	w := &Workload{
		Name: "SSSP", G: g, Space: sp,
		Irregular:    []*mem.Array{distArr, frontierArr},
		RefAdj:       &g.Out,
		Pull:         true,
		UsesFrontier: true,
	}
	w.run = func(r *Runner) {
		for v := 0; v < n; v++ {
			dist[v] = infDist32
			frontier[v] = false
		}
		dist[source] = 0
		frontier[source] = true
		r.Store(distArr, int(source), PCStreamWrite)
		for round := 1; round <= ssspMaxRounds; round++ {
			rounds = round
			any := false
			copy(next, dist)
			r.SetMuted(EdgeDensity(frontier, &g.Out) < PullDensityThreshold)
			r.StartIteration()
			cscIt := g.In.IterFrom(0)
			for dst := 0; dst < n; dst++ {
				r.SetVertex(graph.V(dst))
				nextFrontier[dst] = false
				best := dist[dst]
				improved := false
				srcs, lo := cscIt.Next()
				r.Load(oaArr, dst, PCOffsets)
				for i, src := range srcs {
					e := int(lo) + i
					r.Load(naArr, e, PCNeighbors)
					r.Load(frontierArr, int(src), PCFrontierRead)
					r.Tick(1)
					if !frontier[src] || dist[src] == infDist32 {
						continue
					}
					r.Load(distArr, int(src), PCIrregRead)
					r.Load(wtArr, e, PCStreamRead)
					if d := dist[src] + EdgeWeight(src, graph.V(dst)); d < best {
						best = d
						improved = true
					}
					r.Tick(2)
				}
				if improved {
					next[dst] = best
					nextFrontier[dst] = true
					any = true
					r.Store(distArr, dst, PCIrregWrite)
				}
				r.Store(frontierArr, dst, PCFrontierWrite)
				r.Tick(1)
			}
			dist, next = next, dist
			frontier, nextFrontier = nextFrontier, frontier
			if !any {
				break
			}
		}
		r.SetMuted(false)
	}
	w.check = func() error {
		golden := goldenBellmanFord(g, source, rounds)
		for v := 0; v < n; v++ {
			if dist[v] != golden[v] {
				return fmt.Errorf("SSSP: dist[%d] = %d, golden %d", v, dist[v], golden[v])
			}
		}
		return nil
	}
	return w
}

// goldenBellmanFord computes shortest paths using at most `rounds` edges
// with an independent edge-centric relaxation over the out-adjacency.
func goldenBellmanFord(g *graph.Graph, source graph.V, rounds int) []uint32 {
	n := g.NumVertices()
	dist := make([]uint32, n)
	next := make([]uint32, n)
	for v := range dist {
		dist[v] = infDist32
	}
	dist[source] = 0
	for round := 0; round < rounds; round++ {
		copy(next, dist)
		changed := false
		for u := 0; u < n; u++ {
			if dist[u] == infDist32 {
				continue
			}
			for _, v := range g.Out.Neighs(graph.V(u)) {
				if d := dist[u] + EdgeWeight(graph.V(u), v); d < next[v] {
					next[v] = d
					changed = true
				}
			}
		}
		dist, next = next, dist
		if !changed {
			break
		}
	}
	return dist
}
