package graph

import "fmt"

// CSR-Segmenting (Zhang et al., "Making Caches Work for Graph Analytics")
// is 1-D tiling for pull executions: the source-vertex range is split into
// numTiles contiguous segments and a separate CSC is built per segment
// containing only the edges whose source lies in that segment. A pull
// kernel then runs once per tile, so its irregular srcData accesses are
// confined to the tile's source range (which can be sized to fit in the
// LLC). The paper shows tiling and P-OPT are mutually enabling (Fig. 13):
// tiling shrinks the Rereference Matrix column P-OPT must pin, and P-OPT
// reaches a given miss rate with fewer tiles than DRRIP needs.

// Tile is one segment of a segmented graph: a CSC restricted to sources in
// [SrcLo, SrcHi).
type Tile struct {
	SrcLo, SrcHi V
	In           Adj // incoming neighbors of every destination, filtered to this source range
}

// Segmented is a graph partitioned into tiles for a pull execution.
type Segmented struct {
	G     *Graph
	Tiles []Tile
}

// Segment splits g into numTiles source-range tiles of near-equal vertex
// count. Each tile's CSC preserves sorted neighbor order.
func Segment(g *Graph, numTiles int) *Segmented {
	n := g.NumVertices()
	if numTiles < 1 {
		numTiles = 1
	}
	if numTiles > n {
		numTiles = n
	}
	s := &Segmented{G: g, Tiles: make([]Tile, numTiles)}
	for t := 0; t < numTiles; t++ {
		lo := V(t * n / numTiles)
		hi := V((t + 1) * n / numTiles)
		s.Tiles[t] = Tile{SrcLo: lo, SrcHi: hi, In: filterAdjBySource(&g.In, lo, hi)}
	}
	return s
}

// filterAdjBySource keeps only neighbors in [lo, hi) of each vertex list.
// Because lists are sorted, each filtered list is a contiguous sub-slice.
func filterAdjBySource(in *Adj, lo, hi V) Adj {
	n := in.N()
	oa := make([]uint64, n+1)
	var total uint64
	it := in.IterFrom(0)
	for d := 0; d < n; d++ {
		oa[d] = total
		ns, _ := it.Next()
		a, b := lowerBound(ns, lo), lowerBound(ns, hi)
		total += uint64(b - a)
	}
	oa[n] = total
	na := make([]V, total)
	var w uint64
	it = in.IterFrom(0)
	for d := 0; d < n; d++ {
		ns, _ := it.Next()
		a, b := lowerBound(ns, lo), lowerBound(ns, hi)
		w += uint64(copy(na[w:], ns[a:b]))
	}
	return Adj{OA: oa, NA: na}
}

func lowerBound(sorted []V, x V) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Validate checks that the tiles partition the edge set exactly.
func (s *Segmented) Validate() error {
	total := 0
	for i, t := range s.Tiles {
		if t.In.N() != s.G.NumVertices() {
			return fmt.Errorf("tile %d: has %d vertices, want %d", i, t.In.N(), s.G.NumVertices())
		}
		for d := 0; d < t.In.N(); d++ {
			for _, src := range t.In.Neighs(V(d)) {
				if src < t.SrcLo || src >= t.SrcHi {
					return fmt.Errorf("tile %d [%d,%d): edge src %d out of range", i, t.SrcLo, t.SrcHi, src)
				}
			}
		}
		total += t.In.M()
	}
	if total != s.G.NumEdges() {
		return fmt.Errorf("tiles hold %d edges, graph has %d", total, s.G.NumEdges())
	}
	return nil
}

// TileTranspose builds the out-direction adjacency restricted to sources in
// the tile's range, needed by T-OPT/P-OPT when simulating a tiled pull
// execution (next references only within the tile's edges). Vertices
// outside [SrcLo, SrcHi) get empty lists.
func (s *Segmented) TileTranspose(i int) Adj {
	t := s.Tiles[i]
	n := s.G.NumVertices()
	oa := make([]uint64, n+1)
	var total uint64
	for v := V(0); int(v) < n; v++ {
		oa[v] = total
		if v >= t.SrcLo && v < t.SrcHi {
			// All out-edges of v appear in this tile (tile filters by src).
			total += uint64(s.G.Out.Degree(v))
		}
	}
	oa[n] = total
	na := make([]V, total)
	var w uint64
	it := s.G.Out.IterFrom(t.SrcLo)
	for v := t.SrcLo; v < t.SrcHi; v++ {
		ns, _ := it.Next()
		w += uint64(copy(na[w:], ns))
	}
	return Adj{OA: oa, NA: na}
}
