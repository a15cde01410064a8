package graph

import (
	"encoding/binary"
	"hash/fnv"
	"sync"
)

// The experiment harness asks for the same five-graph suite over and over
// — every fig2..fig16 driver starts from Suite(scale, seed) — and graphs
// are immutable once FromEdges returns. Building each (scale, seed) suite
// once and sharing the *Graph pointers across experiments (and across the
// concurrent cells of a parallel sweep) removes the single largest
// redundant cost of a `poptbench all` run. Nothing is ever invalidated:
// a cached suite is exactly as valid as a rebuilt one, byte for byte.

var suiteCache struct {
	sync.Mutex
	m map[suiteKey][]*Graph //popt:guardedby Mutex
}

type suiteKey struct {
	scale Scale
	seed  int64
}

// cachedSuite returns the memoized suite for (s, seed), building it on
// first use. The build happens under the lock so concurrent first callers
// do not duplicate the work; afterwards every caller gets the same
// immutable graphs.
func cachedSuite(s Scale, seed int64) []*Graph {
	key := suiteKey{s, seed}
	suiteCache.Lock()
	defer suiteCache.Unlock()
	if g, ok := suiteCache.m[key]; ok {
		return g
	}
	if suiteCache.m == nil {
		suiteCache.m = make(map[suiteKey][]*Graph)
	}
	g := buildSuite(s, seed)
	suiteCache.m[key] = g
	return g
}

// Checksum returns an FNV-1a hash over both adjacency directions (offsets
// and neighbor arrays, in their serialized widths). Graphs are immutable
// after construction; tests hash a suite graph before and after a
// concurrent sweep to prove no cell wrote through the shared pointers, and
// corpus stream keys embed the checksum.
func (g *Graph) Checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, a := range []*Adj{&g.Out, &g.In} {
		for _, x := range a.OA {
			binary.LittleEndian.PutUint64(buf[:], x)
			h.Write(buf[:])
		}
		for _, v := range a.NA {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			h.Write(buf[:4])
		}
	}
	return h.Sum64()
}
