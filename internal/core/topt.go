package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"sync"

	"popt/internal/cache"
	"popt/internal/graph"
	"popt/internal/mem"
)

// infDist marks "no future reference" in victim scans.
const infDist = math.MaxInt64

// OracleStream describes one irregularly accessed array to T-OPT: the
// array's address range plus the adjacency that encodes its references.
// For a pull kernel over the CSC, Ref is the graph's out-adjacency (its
// transpose); for push over the CSR, Ref is the in-adjacency.
type OracleStream struct {
	Arr *mem.Array
	Ref *graph.Adj

	// LR is the per-cache-line merge of the vertices' sorted reference
	// lists, so a next-reference query is one seek instead of a scan per
	// vertex. NewTOPT builds it when nil; callers that simulate
	// the same (transpose, line geometry) many times can build it once
	// with BuildLineRefs and share it read-only across runs. This is a
	// simulator-speed optimization only: hardware T-OPT would scan the
	// transpose, and the paper charges it nothing either way (T-OPT is
	// the idealized bound).
	LR *LineRefs

	// cursor is the per-line seek position into LR: per-run state, which
	// NewTOPT allocates for its own copy of the stream.
	cursor []uint32
}

// LineRefs is the immutable merged transpose behind both oracles: for each
// cache line of the irregular array, the sorted union of its vertices'
// reference positions. T-OPT reads exact next references from it and a
// Rereference Matrix Table computes its quantized entries from it. It
// never changes after construction and is safe to share across concurrent
// simulations; the per-line cursors that speed up queries live in the
// per-run Matrix and TOPT.
//
//popt:frozen
type LineRefs struct {
	oa   []uint64
	refs []graph.V
}

// BuildLineRefs merges the sorted neighbor lists of the vertices sharing
// each cache line (elemsPerLine of them) into one sorted list per line.
// In CSR those lists already sit side by side, so the merge is a copy of
// NA cut at every elemsPerLine-th offset, with each line's segment
// sorted. Lines are independent, so the sorts are partitioned across
// GOMAXPROCS workers; the result is identical at every worker count.
func BuildLineRefs(ref *graph.Adj, elemsPerLine int) *LineRefs {
	n := ref.N()
	numLines := (n + elemsPerLine - 1) / elemsPerLine
	lr := &LineRefs{oa: make([]uint64, numLines+1)}
	base := ref.OA[0]
	for l := 0; l <= numLines; l++ {
		lr.oa[l] = ref.OA[min(l*elemsPerLine, n)] - base
	}
	lr.refs = append([]graph.V(nil), ref.NA[base:ref.OA[n]]...)
	workers := runtime.GOMAXPROCS(0)
	if max := numLines / minLinesPerWorker; workers > max {
		workers = max
	}
	if workers <= 1 {
		lr.sortLines(0, numLines)
		return lr
	}
	var wg sync.WaitGroup
	chunk := (numLines + workers - 1) / workers
	for lo := 0; lo < numLines; lo += chunk {
		hi := lo + chunk
		if hi > numLines {
			hi = numLines
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			lr.sortLines(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return lr
}

// sortLines sorts the reference segments of lines [lineLo, lineHi); each
// worker of the parallel build owns a disjoint range. The per-line sort
// is graph.SortV rather than sort.Slice: one closure allocation and
// reflect swapper per cache line adds up over a million-line table, and
// the manual sort keeps this loop escape-free.
//
//popt:hot
func (lr *LineRefs) sortLines(lineLo, lineHi int) {
	for l := lineLo; l < lineHi; l++ {
		graph.SortV(lr.refs[lr.oa[l]:lr.oa[l+1]])
	}
}

// MemBytes returns the resident size of the merged reference table, for
// footprint reports (-memstats).
func (lr *LineRefs) MemBytes() uint64 {
	return uint64(8*len(lr.oa)) + uint64(4*len(lr.refs))
}

// Checksum returns an FNV-1a hash of the merged reference table; tests
// use it to assert immutability under concurrent sharing.
func (lr *LineRefs) Checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range lr.oa {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, r := range lr.refs {
		binary.LittleEndian.PutUint32(buf[:4], uint32(r))
		h.Write(buf[:4])
	}
	return h.Sum64()
}

// numLines returns how many cache lines the table covers.
func (lr *LineRefs) numLines() int { return len(lr.oa) - 1 }

// line returns line l's sorted reference positions.
func (lr *LineRefs) line(l int) []graph.V {
	o := lr.oa[l : l+2]
	return lr.refs[o[0]:o[1]]
}

// seek returns the index of the first element of the sorted list seg that
// is at least x (len(seg) if none), starting from the cursor c: the index
// the same line's previous query returned. Queries follow the outer loop,
// so x mostly moves forward by a few references, and seek gallops from c
// (probing c, c+1, c+3, c+7, ...) before binary-searching the bracketed
// gap, which costs O(log d) for a move of d references. A query that moved
// backward (a new traversal after ResetEpoch or SetTile, BDFS and
// Propagation Blocking orders, multicore interleavings) binary-searches
// seg[:c] instead. The result does not depend on c; the cursor only makes
// it cheap. The searches are written out by hand rather than through
// sort.Search: this runs once per candidate way per LLC eviction, and the
// closure-based form costs an indirect call per probe.
//
//popt:hot
func seek(seg []graph.V, c int, x graph.V) int {
	lo, hi := 0, c
	if c == 0 || seg[c-1] < x {
		// The answer is at or after c: gallop to bracket it.
		lo = c
		for step := 1; hi < len(seg) && seg[hi] < x; step <<= 1 {
			lo = hi + 1
			hi += step
		}
		if hi > len(seg) {
			hi = len(seg)
		}
	}
	// Now seg[lo-1] < x (or lo == 0), and seg[hi] >= x (or hi == len(seg)).
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if seg[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TOPT is transpose-based optimal replacement (Section III): at eviction
// time it scans the transpose neighbor lists of every vertex in each
// candidate line to find exact next references, evicting the line used
// furthest in the future. It is idealized — the simulator charges nothing
// for the transpose lookups — so it upper-bounds P-OPT (Fig. 4, 7, 10).
type TOPT struct {
	g       cache.Geometry
	streams []OracleStream
	cur     graph.V
	tie     *cache.DRRIP
	// Ties counts victim selections where multiple lines shared the
	// maximal next reference and the tie-breaker decided.
	Ties uint64
}

// NewTOPT builds a T-OPT policy over copies of the given irregular
// streams, building any merged-transpose tables the caller did not supply.
func NewTOPT(streams ...OracleStream) *TOPT {
	p := &TOPT{streams: append([]OracleStream(nil), streams...), tie: cache.NewDRRIP(1)}
	for i := range p.streams {
		s := &p.streams[i]
		if s.LR == nil {
			s.LR = BuildLineRefs(s.Ref, s.Arr.ElemsPerLine())
		}
		s.cursor = make([]uint32, s.LR.numLines())
	}
	return p
}

// Name implements cache.Policy.
func (p *TOPT) Name() string { return "T-OPT" }

// Bind implements cache.Policy.
func (p *TOPT) Bind(g cache.Geometry) {
	p.g = g
	p.tie.Bind(g)
}

// UpdateIndex models the paper's update_index instruction: the kernel
// reports the outer-loop vertex it is currently processing.
func (p *TOPT) UpdateIndex(v graph.V) { p.cur = v }

// OnHit implements cache.Policy (tie-breaker state piggybacks on DRRIP).
func (p *TOPT) OnHit(set, way int, acc mem.Access) { p.tie.OnHit(set, way, acc) }

// OnFill implements cache.Policy.
func (p *TOPT) OnFill(set, way int, acc mem.Access) { p.tie.OnFill(set, way, acc) }

// OnEvict implements cache.Policy.
func (p *TOPT) OnEvict(set, way int) { p.tie.OnEvict(set, way) }

// stream returns the irregular stream containing addr, or nil (streaming
// data), i.e. the irreg_base/irreg_bound register comparison.
func (p *TOPT) stream(addr uint64) *OracleStream {
	for i := range p.streams {
		if p.streams[i].Arr.Contains(addr) {
			return &p.streams[i]
		}
	}
	return nil
}

// nextRef returns the exact distance (in outer-loop vertices) to the next
// reference of the line at addr within s, or infDist.
//
//popt:hot
func (p *TOPT) nextRef(s *OracleStream, addr uint64) int64 {
	l := s.Arr.LineID(addr)
	seg, cursor := s.LR.line(l), &s.cursor[l]
	i := seek(seg, int(*cursor), p.cur+1)
	*cursor = uint32(i)
	if i == len(seg) {
		return infDist
	}
	return int64(seg[i]) - int64(p.cur)
}

// Victim implements cache.Policy following Section V-C's candidate search:
// prefer any way holding streaming (non-irregular) data; otherwise evict
// the irregular line referenced furthest in the future, breaking ties with
// DRRIP.
//
//popt:hot
func (p *TOPT) Victim(set int, lines []cache.Line, acc mem.Access) int {
	best, bestDist, tied := -1, int64(-1), false
	for w := p.g.ReservedWays; w < p.g.Ways; w++ {
		s := p.stream(lines[w].Addr)
		if s == nil {
			return w // streaming data has re-reference distance infinity
		}
		d := p.nextRef(s, lines[w].Addr)
		switch {
		case d > bestDist:
			best, bestDist, tied = w, d, false
		case d == bestDist:
			tied = true
			if p.tie.RRPV(set, w) > p.tie.RRPV(set, best) {
				best = w
			}
		}
	}
	if tied {
		p.Ties++
	}
	return best
}
