package core

import (
	"popt/internal/cache"
	"popt/internal/graph"
	"popt/internal/mem"
)

// TransposePrefetcher is the extension the paper's related-work section
// sketches and leaves open: "next references in a graph's transpose could
// also be used for timely prefetching of irregular data." For a pull
// kernel, the traversal adjacency (CSC) lists exactly which irregular
// elements the kernel will touch while processing each upcoming
// destination, so when the outer loop reaches vertex v the prefetcher
// issues the irregular lines needed at v+Depth — perfectly accurate,
// structure-driven lookahead (unlike stride prefetchers, which the paper
// disables as useless for graph data).
//
// It implements VertexIndexed and composes with any replacement policy via
// CombineHooks.
type TransposePrefetcher struct {
	H *cache.Hierarchy
	// Trav is the traversal-direction adjacency: In for pull kernels
	// (in-neighbors of upcoming destinations index srcData).
	Trav *graph.Adj
	// Arr is the irregular array to prefetch.
	Arr *mem.Array
	// Depth is the lookahead distance in outer-loop vertices.
	Depth int

	last    graph.V
	started bool
}

// NewTransposePrefetcher wires a prefetcher with the given lookahead.
func NewTransposePrefetcher(h *cache.Hierarchy, trav *graph.Adj, arr *mem.Array, depth int) *TransposePrefetcher {
	if depth < 1 {
		depth = 1
	}
	return &TransposePrefetcher{H: h, Trav: trav, Arr: arr, Depth: depth}
}

// prefetchPC marks prefetch accesses in the reference stream.
const prefetchPC uint16 = 0x7E

// UpdateIndex implements VertexIndexed: on outer-loop progress, prefetch
// the irregular lines referenced at vertex v+Depth (covering any skipped
// vertices so no target is missed).
func (p *TransposePrefetcher) UpdateIndex(v graph.V) {
	n := graph.V(p.Trav.N())
	from := v + graph.V(p.Depth)
	if p.started && p.last < v {
		from = p.last + graph.V(p.Depth) + 1
		if from <= v {
			from = v + 1
		}
	}
	p.started = true
	to := v + graph.V(p.Depth)
	p.last = v
	for target := from; target <= to && target < n; target++ {
		for _, u := range p.Trav.Neighs(target) {
			if int(u) < p.Arr.Len {
				p.H.Prefetch(mem.Access{Addr: p.Arr.Addr(int(u)), PC: prefetchPC})
			}
		}
	}
}

// ResetEpoch restarts lookahead at a new traversal.
func (p *TransposePrefetcher) ResetEpoch() { p.started = false }

// CombineHooks fans update_index (and epoch/tile events) out to several
// vertex-indexed consumers, letting a prefetcher ride alongside a
// replacement policy.
func CombineHooks(hooks ...VertexIndexed) VertexIndexed { return multiHook(hooks) }

type multiHook []VertexIndexed

// UpdateIndex implements VertexIndexed.
func (m multiHook) UpdateIndex(v graph.V) {
	for _, h := range m {
		h.UpdateIndex(v)
	}
}

// ResetEpoch forwards to members that track epochs.
func (m multiHook) ResetEpoch() {
	for _, h := range m {
		if er, ok := h.(interface{ ResetEpoch() }); ok {
			er.ResetEpoch()
		}
	}
}

// SetTile forwards to members that track tiles.
func (m multiHook) SetTile(t int) {
	for _, h := range m {
		if ts, ok := h.(interface{ SetTile(int) }); ok {
			ts.SetTile(t)
		}
	}
}
