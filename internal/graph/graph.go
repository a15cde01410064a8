// Package graph provides the compressed sparse graph representations,
// builders, generators, reorderings, and tilings used throughout the P-OPT
// reproduction.
//
// A Graph stores both traversal directions of its adjacency matrix: the
// Compressed Sparse Row (CSR) encodes outgoing neighbors of each source
// vertex and the Compressed Sparse Column (CSC) encodes incoming neighbors
// of each destination vertex. Keeping both is the norm in graph frameworks
// (GAP, Ligra) and is the property that T-OPT/P-OPT exploit: the transpose
// of the traversal direction encodes every vertex's next reference.
package graph

import (
	"fmt"
	"math"
)

// V is the vertex identifier type. Real-world frameworks use 32-bit IDs; so
// does the paper (the full vertex-ID space that P-OPT quantizes is 32 bits).
type V = uint32

// Adj is one traversal direction of the adjacency matrix in compressed
// sparse form: the classic two-array CSR. OA (Offsets Array) has length
// N+1 and the neighbors of vertex v occupy NA[OA[v]:OA[v+1]], sorted
// ascending. Sorted neighbor lists are what make transpose-based
// next-reference lookups cheap. The edge index OA[v] is also the value
// kernels use as the simulated neighbor-array index.
//
//popt:frozen
type Adj struct {
	OA []uint64
	NA []V
}

// N returns the number of vertices.
func (a *Adj) N() int { return len(a.OA) - 1 }

// M returns the number of directed edges.
func (a *Adj) M() int { return len(a.NA) }

// MemBytes returns the resident byte footprint of the adjacency storage.
func (a *Adj) MemBytes() uint64 {
	return 8*uint64(len(a.OA)) + 4*uint64(len(a.NA))
}

// Degree returns the number of neighbors of v.
//
//popt:hot
func (a *Adj) Degree(v V) int {
	return int(a.OA[v+1] - a.OA[v])
}

// Start returns the global edge index of v's first neighbor, OA[v].
// v == N() is allowed and returns M().
//
//popt:hot
func (a *Adj) Start(v V) uint64 {
	return a.OA[v]
}

// Neighs returns the (sorted) neighbor list of v. The slice aliases the
// underlying NA storage and must not be modified.
//
//popt:hot
func (a *Adj) Neighs(v V) []V {
	return a.NA[a.OA[v]:a.OA[v+1]]
}

// NextAfter returns the smallest neighbor of v that is strictly greater
// than cur, and ok=false if no such neighbor exists. In a pull execution
// that is the outer-loop iteration at which srcData[v] is next referenced;
// it is the primitive on which T-OPT is built. The binary search is hand
// rolled: sort.Search's closure costs an indirect call per probe on what
// is a per-eviction-candidate operation.
//
//popt:hot
func (a *Adj) NextAfter(v V, cur V) (next V, ok bool) {
	ns := a.NA[a.OA[v]:a.OA[v+1]]
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ns[mid] > cur {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(ns) {
		return 0, false
	}
	return ns[lo], true
}

// NeighborIter walks vertices in ascending order, yielding each vertex's
// sorted neighbor list and the global edge index of its first neighbor.
// It is the canonical CSR inner loop
//
//	for e := OA[v]; e < OA[v+1]; e++ { ... NA[e] ... }
//
// as two loads and a subslice per vertex. The returned slice must not be
// modified.
type NeighborIter struct {
	oa []uint64
	na []V
}

// IterFrom returns an iterator positioned at vertex v.
func (a *Adj) IterFrom(v V) NeighborIter {
	return NeighborIter{oa: a.OA[v:], na: a.NA}
}

// Next yields the neighbors of the current vertex and the global edge
// index of its first neighbor, then advances. Calling Next more than
// N()-v times after IterFrom(v) is invalid.
//
//popt:hot
func (it *NeighborIter) Next() (ns []V, start uint64) {
	lo := it.oa[0]
	hi := it.oa[1]
	it.oa = it.oa[1:]
	return it.na[lo:hi:hi], lo
}

// Graph is an immutable directed graph stored in both traversal directions.
//
//popt:frozen
type Graph struct {
	// Out is the CSR: Out.Neighs(s) are the destinations of edges leaving s.
	Out Adj
	// In is the CSC: In.Neighs(d) are the sources of edges entering d.
	In Adj
	// Name labels the graph in reports ("KRON-20", "URAND-18", ...).
	Name string
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.Out.N() }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.Out.M() }

// AvgDegree returns the mean out-degree.
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(n)
}

func (g *Graph) String() string {
	return fmt.Sprintf("%s{n=%d m=%d avgDeg=%.1f}", g.Name, g.NumVertices(), g.NumEdges(), g.AvgDegree())
}

// Renamed returns a graph that shares g's adjacency storage but carries a
// different report label. The copy is a fresh value, so callers can
// relabel a published graph without mutating it.
func (g *Graph) Renamed(name string) *Graph {
	return &Graph{Out: g.Out, In: g.In, Name: name}
}

// Edge is a directed edge used by builders and generators.
type Edge struct {
	Src, Dst V
}

// FromEdges builds a Graph (both CSR and CSC) from a directed edge list.
// Self-loops are kept, duplicate edges are removed, and neighbor lists come
// out sorted. n is the number of vertices; every endpoint must be < n.
func FromEdges(name string, n int, edges []Edge) *Graph {
	out := adjFromEdges(n, edges, false)
	// The in-adjacency is derived from the built CSR rather than from the
	// raw edges: a stable scatter of the sorted-unique pairs needs no
	// per-vertex sort, dedup, or compaction (see adjTranspose), roughly
	// halving construction cost versus two full builds. The bytes are
	// identical to adjFromEdges(n, edges, true).
	in := adjTranspose(n, out)
	return &Graph{Out: out, In: in, Name: name}
}

// Transpose returns a graph with Out and In swapped (edges reversed). The
// underlying arrays are shared, not copied.
func (g *Graph) Transpose() *Graph {
	return &Graph{Out: g.In, In: g.Out, Name: g.Name + "-T"}
}

// MaxDegree returns the maximum out-degree and the vertex attaining it.
func (g *Graph) MaxDegree() (deg int, at V) {
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Out.Degree(V(v)); d > deg {
			deg, at = d, V(v)
		}
	}
	return deg, at
}

// DegreeHistogram returns counts of out-degrees bucketed by powers of two:
// bucket i counts vertices with degree in [2^i, 2^(i+1)). Bucket 0 also
// includes degree-0 vertices.
func (g *Graph) DegreeHistogram() []int {
	var hist []int
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Out.Degree(V(v))
		b := 0
		for x := d; x > 1; x >>= 1 {
			b++
		}
		for len(hist) <= b {
			hist = append(hist, 0)
		}
		hist[b]++
	}
	return hist
}

// Validate checks structural invariants (monotone offsets, sorted unique
// neighbor lists, in/out edge counts matching, endpoints in range) and
// returns a descriptive error on the first violation. It exists for tests
// and for validating externally loaded graphs.
func (g *Graph) Validate() error {
	if g.Out.N() != g.In.N() {
		return fmt.Errorf("graph %s: out has %d vertices, in has %d", g.Name, g.Out.N(), g.In.N())
	}
	if g.Out.M() != g.In.M() {
		return fmt.Errorf("graph %s: out has %d edges, in has %d", g.Name, g.Out.M(), g.In.M())
	}
	for _, da := range []struct {
		dir string
		a   *Adj
	}{{"out", &g.Out}, {"in", &g.In}} {
		dir, a := da.dir, da.a
		n := a.N()
		if n < 0 || uint64(n) > math.MaxUint32 {
			return fmt.Errorf("graph %s %s: offsets array of length %d", g.Name, dir, len(a.OA))
		}
		if a.OA[0] != 0 || a.OA[n] != uint64(a.M()) {
			return fmt.Errorf("graph %s %s: offsets must span [0,%d], got [%d,%d]", g.Name, dir, a.M(), a.OA[0], a.OA[n])
		}
		for v := 0; v < n; v++ {
			if a.OA[v] > a.OA[v+1] {
				return fmt.Errorf("graph %s %s: offsets decrease at vertex %d", g.Name, dir, v)
			}
		}
		for v := 0; v < n; v++ {
			ns := a.Neighs(V(v))
			for i, u := range ns {
				if int(u) >= n {
					return fmt.Errorf("graph %s %s: vertex %d has out-of-range neighbor %d", g.Name, dir, v, u)
				}
				if i > 0 && ns[i-1] >= u {
					return fmt.Errorf("graph %s %s: neighbors of %d not sorted/unique at %d", g.Name, dir, v, i)
				}
			}
		}
	}
	// Every out-edge must appear as an in-edge; with equal edge counts and
	// unique lists, that makes the two directions transposes.
	for v := 0; v < g.Out.N(); v++ {
		for _, u := range g.Out.Neighs(V(v)) {
			if !contains(g.In.Neighs(u), V(v)) {
				return fmt.Errorf("graph %s: edge %d->%d missing from CSC", g.Name, v, u)
			}
		}
	}
	return nil
}

// contains reports whether x occurs in a sorted slice.
func contains(sorted []V, x V) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == x
}
