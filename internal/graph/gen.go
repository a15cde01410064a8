package graph

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The paper evaluates on five inputs (Table III): DBP (DBpedia, power-law
// with moderate skew), UK-02 (web crawl, strong community structure), KRON
// (synthetic Kronecker, extreme skew), URAND (uniform random), and HBUBL
// (hugebubbles, a bounded-degree, high-diameter mesh). Those graphs are not
// redistributable here, so each generator below reproduces the structural
// property that drives the paper's cache behaviour: degree distribution,
// skew, community locality, and diameter. DESIGN.md records this
// substitution.

// Edge generation is chunk-parallel: genEdges (below) fills the edge
// slice in fixed genChunk-sized granules, each granule drawing from its
// own deterministic RNG stream, so the byte output depends only on the
// generator parameters and never on GOMAXPROCS. Chunk 0 always draws
// from the historical rand.NewSource(seed) stream, which keeps every
// single-chunk graph — the whole tiny and default suites, pinned by the
// sweep and determinism goldens — byte-identical to the old serial
// generators; only graphs above genChunk edges (the large suite) get the
// new multi-stream layout.

// genChunk is the fixed generation granule in edges. It must never
// change without regenerating every golden that records a graph larger
// than one chunk (none are checked in today).
const genChunk = 1 << 21

// chunkSeed derives the RNG seed of generation chunk c from the
// generator's seed. Chunk 0 is the legacy stream; later chunks mix the
// chunk index through splitmix64 so streams are uncorrelated even for
// adjacent seeds.
func chunkSeed(seed int64, c int) int64 {
	if c == 0 {
		return seed
	}
	return int64(splitmix64(uint64(seed) + uint64(c)*0x9e3779b97f4a7c15))
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed
// 64-bit mixer (Steele et al., "Fast splittable pseudorandom number
// generators").
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fastSource is a SplitMix64-sequence rand.Source64 used for non-legacy
// generation chunks: a counter stepped by the golden gamma and pushed
// through the finalizer per draw. Several times cheaper than math/rand's
// default lagged-Fibonacci source (no feedback array, no Seed scan), with
// the statistical quality SplitMix64 is known for — large-suite
// generation is RNG-bound on few cores, so the source is on the measured
// path. Chunk 0 never uses it: the legacy default source is what the
// tiny/default golden streams were recorded against.
type fastSource struct{ state uint64 }

//popt:hot
func (s *fastSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *fastSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *fastSource) Seed(seed int64) { s.state = uint64(seed) }

// Float64 and Intn mirror rand.Rand's draws on the concrete source, so
// generator inner loops inline them instead of paying an interface call
// per draw (the draws are the dominant cost of large-suite generation
// on few cores). Intn uses the Lemire multiply-shift reduction: the
// bias against a true uniform is under n/2^64 — immaterial for
// synthetic-graph streams, and non-legacy chunks are new streams anyway.
//
//popt:hot
func (s *fastSource) Float64() float64 { return float64(s.Uint64()>>11) / (1 << 53) }

//popt:hot
func (s *fastSource) Intn(n int) int {
	hi, _ := bits.Mul64(s.Uint64(), uint64(n))
	return int(hi)
}

// zipfTable is the cumulative distribution of a bounded Zipf(s, v, imax)
// variate: a drop-in replacement for rand.Zipf draws on non-legacy
// generation chunks. rand.Zipf's rejection-inversion pays two Exps and a
// Log per draw; for the small domains the generators use, one Float64
// plus an in-cache binary search draws from the same family of
// distributions at a fraction of the cost. (The table is the exact
// discrete Zipf CDF, not rand.Zipf's continuous approximation of it, so
// the two draw paths agree in distribution shape but not sample-for-
// sample — fine for non-legacy chunks, whose streams are new anyway.)
type zipfTable []float64

// newZipfTable builds the CDF of P(k) ∝ (v+k)^-s for k in [0, imax].
func newZipfTable(s, v float64, imax int) zipfTable {
	cdf := make(zipfTable, imax+1)
	sum := 0.0
	for k := 0; k <= imax; k++ {
		sum += math.Pow(v+float64(k), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// locate inverts the CDF at r (a uniform [0,1) draw): the
// inverse-transform sample.
//
//popt:hot
func (t zipfTable) locate(r float64) uint64 {
	lo, hi := 0, len(t)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint64(lo)
}

// genEdges runs fill over [0, m) in genChunk granules. rng0 is the
// generator's legacy RNG — possibly already advanced by setup draws —
// and is used verbatim for chunk 0 (with fs == nil); every later chunk
// gets a fresh fastSource, handed to fill both wrapped in a rand.Rand
// (for rand.Zipf and friends) and directly — inner loops that draw
// through the concrete fs inline the draw, skipping an interface call
// per random number. Single-chunk generations run inline on the calling
// goroutine; larger ones fan the chunks out over GOMAXPROCS workers
// (each chunk's RNG is private to the one worker that processes it).
func genEdges(m int, rng0 *rand.Rand, seed int64, fill func(rng *rand.Rand, fs *fastSource, lo, hi int)) {
	chunks := (m + genChunk - 1) / genChunk
	if chunks <= 1 {
		fill(rng0, nil, 0, m)
		return
	}
	w := runtime.GOMAXPROCS(0)
	if w > chunks {
		w = chunks
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for c := k; c < chunks; c += w {
				rng, fs := rng0, (*fastSource)(nil)
				if c > 0 {
					fs = &fastSource{state: uint64(chunkSeed(seed, c))}
					rng = rand.New(fs)
				}
				lo := c * genChunk
				hi := lo + genChunk
				if hi > m {
					hi = m
				}
				fill(rng, fs, lo, hi)
			}
		}(k)
	}
	wg.Wait()
}

// Kron generates an R-MAT/Kronecker graph with 2^scale vertices and
// edgeFactor*2^scale directed edges using the Graph500 partition
// probabilities (0.57, 0.19, 0.19, 0.05). These graphs have the extremely
// skewed degree distribution the paper observes makes hub vertices hit by
// chance ("KRON" in the paper).
func Kron(scale, edgeFactor int, seed int64) *Graph {
	rng0 := rand.New(rand.NewSource(seed))
	n := 1 << scale
	m := edgeFactor * n
	edges := make([]Edge, m)
	const a, b, c = 0.57, 0.19, 0.19
	// Integer thresholds of the partition probabilities scaled to 2^32:
	// non-legacy chunks compare 32-bit halves of one raw Uint64 against
	// these, drawing two recursion levels per source call instead of one
	// Float64 per level — the R-MAT loop is scale (23 at ScaleLarge)
	// draws per edge, the hottest loop of KRON generation. Quantizing the
	// partition probabilities to 2^-32 shifts them by under 2.4e-10;
	// non-legacy streams are new in any case.
	twoTo32 := float64(1 << 32)
	ta := uint32(a * twoTo32)
	tb := uint32((a + b) * twoTo32)
	tc := uint32((a + b + c) * twoTo32)
	genEdges(m, rng0, seed, func(rng *rand.Rand, fs *fastSource, lo, hi int) {
		if fs == nil {
			// Legacy chunk: the Float64 draw sequence the tiny/default
			// goldens were recorded against.
			for i := lo; i < hi; i++ {
				var src, dst int
				for bit := scale - 1; bit >= 0; bit-- {
					r := rng.Float64()
					switch {
					case r < a: // top-left: neither bit set
					case r < a+b:
						dst |= 1 << bit
					case r < a+b+c:
						src |= 1 << bit
					default:
						src |= 1 << bit
						dst |= 1 << bit
					}
				}
				edges[i] = Edge{V(src), V(dst)}
			}
			return
		}
		for i := lo; i < hi; i++ {
			var src, dst int
			var r uint64
			have := 0
			for bit := scale - 1; bit >= 0; bit-- {
				if have == 0 {
					r = fs.Uint64()
					have = 2
				}
				r32 := uint32(r)
				r >>= 32
				have--
				switch {
				case r32 < ta: // top-left: neither bit set
				case r32 < tb:
					dst |= 1 << bit
				case r32 < tc:
					src |= 1 << bit
				default:
					src |= 1 << bit
					dst |= 1 << bit
				}
			}
			edges[i] = Edge{V(src), V(dst)}
		}
	})
	return FromEdges(fmt.Sprintf("KRON-%d", scale), n, edges)
}

// Uniform generates an Erdős–Rényi-style graph with n vertices and m
// directed edges whose endpoints are drawn uniformly ("URAND" in the
// paper). Uniform graphs have no exploitable skew or community structure,
// which is where heuristic policies struggle most.
func Uniform(n, m int, seed int64) *Graph {
	rng0 := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	genEdges(m, rng0, seed, func(rng *rand.Rand, fs *fastSource, lo, hi int) {
		if fs != nil {
			for i := lo; i < hi; i++ {
				edges[i] = Edge{V(fs.Intn(n)), V(fs.Intn(n))}
			}
			return
		}
		for i := lo; i < hi; i++ {
			edges[i] = Edge{V(rng.Intn(n)), V(rng.Intn(n))}
		}
	})
	return FromEdges(fmt.Sprintf("URAND-%d", log2ceil(n)), n, edges)
}

// PowerLaw generates a graph whose out-degrees follow a Zipf distribution
// with the given exponent (typical web/social exponents are 1.7-2.2) and
// whose endpoints are chosen preferentially, yielding correlated in-degree
// skew. With exponent around 2 and no locality this resembles "DBP".
func PowerLaw(n, avgDeg int, exponent float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	// Draw out-degrees from a truncated Zipf, rescaled to hit avgDeg.
	zipf := rand.NewZipf(rng, exponent, 1, uint64(n-1))
	degs := make([]int, n)
	total := 0
	for i := range degs {
		degs[i] = int(zipf.Uint64()) + 1
		total += degs[i]
	}
	scale := float64(avgDeg*n) / float64(total)
	m := 0
	for i := range degs {
		degs[i] = int(math.Round(float64(degs[i]) * scale))
		if degs[i] == 0 {
			degs[i] = 1
		}
		m += degs[i]
	}
	// Destination selection: preferential by sampling an edge endpoint from
	// a vertex-repeated pool approximated by sampling another Zipf draw and
	// mapping it to a random permutation so hubs are spread over the ID
	// space (real graph IDs are not degree-sorted).
	perm := rng.Perm(n)
	// Edge index e belongs to the source vertex whose degree-prefix range
	// contains e; the prefix array lets each generation chunk find its
	// first source with a binary search and walk forward from there.
	prefix := make([]uint64, n+1)
	for i, d := range degs {
		prefix[i+1] = prefix[i] + uint64(d)
	}
	edges := make([]Edge, m)
	genEdges(m, rng, seed, func(rng *rand.Rand, _ *fastSource, lo, hi int) {
		// rand.Zipf keeps no state of its own (all state is in rng), so a
		// fresh Zipf over chunk 0's legacy rng continues the historical
		// draw sequence exactly. (The unbounded-domain Zipf needs
		// rand.Zipf's rejection-inversion, so this generator draws through
		// rand.Rand on every chunk.)
		z := rand.NewZipf(rng, exponent, 1, uint64(n-1))
		src := sort.Search(n, func(s int) bool { return prefix[s+1] > uint64(lo) })
		for e := lo; e < hi; e++ {
			for prefix[src+1] <= uint64(e) {
				src++
			}
			dst := perm[int(z.Uint64())%n]
			edges[e] = Edge{V(src), V(dst)}
		}
	})
	return FromEdges(fmt.Sprintf("DBP-%d", log2ceil(n)), n, edges)
}

// Community generates a graph with block community structure plus power-law
// degrees: vertices are grouped into communities of the given size and each
// edge stays inside its community with probability pIntra, otherwise it
// goes to a uniformly random vertex. Contiguous community IDs give the
// spatial locality of web crawls ("UK-02" in the paper), which is the
// structure HATS-BDFS exploits.
func Community(n, avgDeg, communitySize int, pIntra float64, seed int64) *Graph {
	rng0 := rand.New(rand.NewSource(seed))
	m := n * avgDeg
	edges := make([]Edge, m)
	ztab := newZipfTable(1.8, 1, 63)
	genEdges(m, rng0, seed, func(rng *rand.Rand, fs *fastSource, lo, hi int) {
		if fs == nil {
			// Legacy chunk: rand.Zipf hub skew on the legacy stream, in the
			// historical draw order — the sequence the tiny/default goldens
			// were recorded against.
			zipf := rand.NewZipf(rng, 1.8, 1, 63)
			for i := lo; i < hi; i++ {
				src := rng.Intn(n)
				var dst int
				if rng.Float64() < pIntra {
					base := (src / communitySize) * communitySize
					span := communitySize
					if base+span > n {
						span = n - base
					}
					dst = base + rng.Intn(span)
				} else {
					dst = rng.Intn(n)
				}
				// Skew the intra-community choice toward community-local hubs.
				if h := int(zipf.Uint64()); h > 0 && rng.Float64() < 0.3 {
					dst = (dst/communitySize)*communitySize + h%communitySize
					if dst >= n {
						dst = n - 1
					}
				}
				edges[i] = Edge{V(src), V(dst)}
			}
			return
		}
		// Non-legacy chunks draw everything through the concrete source,
		// take hub skew from the CDF table (one Float64 and a 6-step
		// in-cache search instead of rand.Zipf's per-draw Exp/Exp/Log),
		// and draw the cheap 0.3 acceptance gate before the table — the
		// same joint distribution (the draws are independent) with ~70%
		// fewer table draws. This loop dominates generation of the
		// 115 M-edge large-scale UK input; sample-exact match to the
		// legacy stream is not required off chunk 0.
		for i := lo; i < hi; i++ {
			src := fs.Intn(n)
			var dst int
			if fs.Float64() < pIntra {
				base := (src / communitySize) * communitySize
				span := communitySize
				if base+span > n {
					span = n - base
				}
				dst = base + fs.Intn(span)
			} else {
				dst = fs.Intn(n)
			}
			if fs.Float64() < 0.3 {
				if h := int(ztab.locate(fs.Float64())); h > 0 {
					dst = (dst/communitySize)*communitySize + h%communitySize
					if dst >= n {
						dst = n - 1
					}
				}
			}
			edges[i] = Edge{V(src), V(dst)}
		}
	})
	return FromEdges(fmt.Sprintf("UK-%d", log2ceil(n)), n, edges)
}

// Mesh generates a rows×cols 2-D grid with bidirectional edges to the right
// and down neighbors. Grids are bounded-degree (≤4) and have diameter
// O(rows+cols): the high-diameter, normal-degree structure of "HBUBL"
// (hugebubbles). Its Radii behaviour matches the paper's: direction
// switching never flips to pull, so Radii is skipped for it.
func Mesh(rows, cols int) *Graph {
	n := rows * cols
	edges := make([]Edge, 0, 4*n)
	id := func(r, c int) V { return V(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{id(r, c), id(r, c+1)}, Edge{id(r, c+1), id(r, c)})
			}
			if r+1 < rows {
				edges = append(edges, Edge{id(r, c), id(r+1, c)}, Edge{id(r+1, c), id(r, c)})
			}
		}
	}
	return FromEdges(fmt.Sprintf("HBUBL-%dx%d", rows, cols), n, edges)
}

// Scramble relabels g's vertices with a uniformly random permutation,
// destroying any locality the ID order encodes while preserving structure
// (degrees, diameter, communities). The name is kept.
func Scramble(g *Graph, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	p := make(Permutation, g.NumVertices())
	for i, x := range rng.Perm(g.NumVertices()) {
		p[i] = V(x)
	}
	return p.Apply(g).Renamed(g.Name)
}

// MeshScrambled is Mesh with vertex labels permuted uniformly at random.
// Row-major labeling gives a mesh near-perfect ID locality (neighbors
// share or adjoin cache lines), which real unstructured meshes like
// hugebubbles do not have; scrambling restores the irregularity the paper
// observes on HBUBL while preserving degree and diameter.
func MeshScrambled(rows, cols int, seed int64) *Graph {
	return Scramble(Mesh(rows, cols), seed)
}

func log2ceil(n int) int {
	b := 0
	for x := n - 1; x > 0; x >>= 1 {
		b++
	}
	return b
}

// Scale selects the size of the generated input suite.
type Scale int

const (
	// ScaleTiny is for unit tests: a few thousand vertices.
	ScaleTiny Scale = iota
	// ScaleDefault is the default experiment scale (~64-128K vertices),
	// sized so the irregular working set exceeds the scaled LLC by the same
	// ratio as the paper's graphs exceed a 24 MB LLC.
	ScaleDefault
	// ScaleLarge approaches paper-sized inputs (millions of vertices); used
	// only when explicitly requested because simulation time grows linearly.
	ScaleLarge
)

// String names the scale; corpus keys embed it, so the names are part of
// the on-disk contract and must stay stable.
func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleDefault:
		return "default"
	case ScaleLarge:
		return "large"
	}
	return "scale" + strconv.Itoa(int(s))
}

// Suite returns the five-input suite mirroring Table III at the requested
// scale. The order matches the paper's tables: DBP, UK, KRON, URAND,
// HBUBL. Suites are memoized per (scale, seed): the first call generates
// the graphs, later calls share the same immutable *Graph values. The
// returned slice is a fresh copy, so callers may append to or reorder it
// freely.
func Suite(s Scale, seed int64) []*Graph {
	cached := cachedSuite(s, seed)
	out := make([]*Graph, len(cached))
	copy(out, cached)
	return out
}

// SuiteProgress, when non-nil, receives one event per suite graph as it
// finishes building — the poptbench/graphgen -progress heartbeat for
// large-scale runs, where a single graph takes seconds to minutes. It is
// host-side observability only (never simulated state) and must be
// installed before the first Suite call; buildSuite runs under the suite
// cache lock, so the callback is never invoked concurrently.
var SuiteProgress func(g *Graph, elapsed time.Duration)

// buildSuite generates the suite; Suite memoizes it.
func buildSuite(s Scale, seed int64) []*Graph {
	var gens []func() *Graph
	switch s {
	case ScaleTiny:
		gens = []func() *Graph{
			func() *Graph { return PowerLaw(1<<11, 8, 2.0, seed) },
			func() *Graph { return Community(1<<11, 12, 64, 0.8, seed+1) },
			func() *Graph { return Kron(12, 4, seed+2) },
			func() *Graph { return Uniform(1<<12, 4<<12, seed+3) },
			func() *Graph { return MeshScrambled(48, 48, seed+4) },
		}
	case ScaleLarge:
		// 8M vertices: 32 MB of 4-byte irregular data against the Table I
		// 24 MB LLC, the same exceeds-the-LLC regime as the paper's
		// 18-34 M-vertex inputs. Expect minutes per simulation.
		gens = []func() *Graph{
			func() *Graph { return PowerLaw(1<<23, 7, 2.0, seed) },
			func() *Graph { return Community(1<<23, 14, 4096, 0.85, seed+1) },
			func() *Graph { return Kron(23, 4, seed+2) },
			func() *Graph { return Uniform(1<<23, 4<<23, seed+3) },
			func() *Graph { return MeshScrambled(2900, 2893, seed+4) },
		}
	default: // ScaleDefault
		// Average degrees mirror Table III: DBP 7.5, UK-02 15.8, KRON 4.0,
		// URAND 4.0, HBUBL 3.0 — degree density shapes the next-reference
		// distance distribution and hence P-OPT's tie rate.
		gens = []func() *Graph{
			func() *Graph { return PowerLaw(1<<17, 7, 2.0, seed) },
			func() *Graph { return Community(1<<17, 14, 1024, 0.85, seed+1) },
			func() *Graph { return Kron(17, 4, seed+2) },
			func() *Graph { return Uniform(1<<17, 4<<17, seed+3) },
			func() *Graph { return MeshScrambled(360, 360, seed+4) },
		}
	}
	out := make([]*Graph, len(gens))
	for i, gen := range gens {
		if SuiteProgress != nil {
			start := time.Now() //lint:allow determinism (host-side progress timing, not simulated state)
			out[i] = gen()
			SuiteProgress(out[i], time.Since(start)) //lint:allow determinism (host-side progress timing)
		} else {
			out[i] = gen()
		}
	}
	return out
}
