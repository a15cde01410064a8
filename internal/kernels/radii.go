package kernels

import (
	"fmt"

	"popt/internal/graph"
	"popt/internal/mem"
)

const (
	// radiiSources is the number of concurrent BFS traversals packed into
	// one 64-bit visited word per vertex (Ligra's Radii uses bit-parallel
	// multi-BFS).
	radiiSources = 64
	// radiiMaxRounds caps simulated pull rounds; the paper samples a
	// subset of pull iterations for frontier kernels, and skips Radii on
	// the high-diameter HBUBL input entirely.
	radiiMaxRounds = 8
)

// NewRadii builds the Radii-estimation workload (Ligra Radii): 64
// concurrent BFS traversals from sampled sources, visited sets packed in
// 64-bit masks, frontier as a bit-vector, pull direction. Irregular
// streams: the 8 B visited array and the 1-bit frontier (Table II: 8 B &
// 1 bit, pull-mostly, transpose = CSR).
func NewRadii(g *graph.Graph) *Workload {
	n := g.NumVertices()
	sp := mem.NewSpace()
	visitedArr := sp.AllocBytes("visited", n, 8, true)
	frontierArr := sp.Alloc("frontier", n, 1, true)
	radiiArr := sp.AllocBytes("radii", n, 4, false)
	oaArr := sp.AllocBytes("cscOA", n+1, 8, false)
	naArr := sp.AllocBytes("cscNA", g.NumEdges(), 4, false)

	visited := make([]uint64, n)
	nextVisited := make([]uint64, n)
	radii := make([]int32, n)
	frontier := make([]bool, n)
	nextFrontier := make([]bool, n)
	rounds := 0

	// Deterministic source sampling: spread sources over the ID space.
	sources := make([]graph.V, 0, radiiSources)
	stride := n / radiiSources
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < radiiSources && i*stride < n; i++ {
		sources = append(sources, graph.V(i*stride))
	}

	w := &Workload{
		Name: "Radii", G: g, Space: sp,
		Irregular:    []*mem.Array{visitedArr, frontierArr},
		RefAdj:       &g.Out,
		Pull:         true,
		UsesFrontier: true,
	}
	w.run = func(r *Runner) {
		for v := 0; v < n; v++ {
			visited[v] = 0
			nextVisited[v] = 0
			radii[v] = -1
			frontier[v] = false
		}
		for i, s := range sources {
			visited[s] = 1 << uint(i)
			nextVisited[s] = visited[s]
			radii[s] = 0
			frontier[s] = true
			r.Store(visitedArr, int(s), PCStreamWrite)
		}
		for round := 1; round <= radiiMaxRounds; round++ {
			rounds = round
			any := false
			// Sparse rounds run in push direction under direction
			// switching; only dense pull rounds are simulated in detail,
			// as in the paper's iteration sampling.
			r.SetMuted(EdgeDensity(frontier, &g.Out) < PullDensityThreshold)
			r.StartIteration()
			cscIt := g.In.IterFrom(0)
			for dst := 0; dst < n; dst++ {
				r.SetVertex(graph.V(dst))
				r.Load(oaArr, dst, PCOffsets)
				acc := visited[dst]
				srcs, lo := cscIt.Next()
				for i, src := range srcs {
					r.Load(naArr, int(lo)+i, PCNeighbors)
					r.Load(frontierArr, int(src), PCFrontierRead)
					if frontier[src] {
						r.Load(visitedArr, int(src), PCIrregRead)
						acc |= visited[src]
					}
					r.Tick(1)
				}
				if acc != visited[dst] {
					nextVisited[dst] = acc
					radii[dst] = int32(round)
					nextFrontier[dst] = true
					any = true
					r.Store(visitedArr, int(dst), PCIrregWrite)
					r.Store(radiiArr, dst, PCStreamWrite)
				} else {
					nextVisited[dst] = acc
					nextFrontier[dst] = false
				}
				r.Store(frontierArr, dst, PCFrontierWrite)
				r.Tick(2)
			}
			copy(visited, nextVisited)
			frontier, nextFrontier = nextFrontier, frontier
			if !any {
				break
			}
		}
		r.SetMuted(false)
	}
	w.check = func() error {
		// Golden: per-source BFS distances; radii[v] must equal the round
		// at which v last acquired a new source bit, capped by the
		// simulated rounds.
		golden := goldenRadii(g, sources, rounds)
		for v := 0; v < n; v++ {
			if radii[v] != golden[v] {
				return fmt.Errorf("Radii: radii[%d] = %d, golden %d", v, radii[v], golden[v])
			}
		}
		return nil
	}
	return w
}

// goldenRadii runs plain BFS from each source on the reversed edges (pull
// from in-neighbors means distance along forward edges) and reports, per
// vertex, the latest round <= maxRounds at which a new source reached it.
func goldenRadii(g *graph.Graph, sources []graph.V, maxRounds int) []int32 {
	n := g.NumVertices()
	out := make([]int32, n)
	for i := range out {
		out[i] = -1
	}
	for _, s := range sources {
		dist := bfsForward(g, s, maxRounds)
		for v := 0; v < n; v++ {
			if dist[v] >= 0 && dist[v] > int(out[v]) {
				out[v] = int32(dist[v])
			}
		}
	}
	// A vertex reached at round k by one source and round j>k by another
	// records j — the same "last improvement" semantics as the kernel, as
	// long as improvements are monotone per round, which BFS levels are.
	return out
}

// bfsForward returns forward-BFS distances from s, -1 when unreached
// within maxRounds.
func bfsForward(g *graph.Graph, s graph.V, maxRounds int) []int {
	n := g.NumVertices()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	cur := []graph.V{s}
	for round := 1; len(cur) > 0 && round <= maxRounds; round++ {
		var next []graph.V
		for _, u := range cur {
			for _, v := range g.Out.Neighs(u) {
				if dist[v] < 0 {
					dist[v] = round
					next = append(next, v)
				}
			}
		}
		cur = next
	}
	return dist
}
