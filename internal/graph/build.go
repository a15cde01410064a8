package graph

import (
	"runtime"
	"sync"
)

// Phase-parallel adjacency construction. The serial builder this
// replaces did a counting sort (count, prefix, place) followed by a
// per-vertex sort.Slice + dedup; every phase of that pipeline is
// embarrassingly parallel over either edges or vertices, and the final
// Adj is a pure function of the edge multiset (sorting and deduping
// canonicalizes each neighbor list), so any placement order produces
// byte-identical output. That property is what makes the parallel build
// bit-reproducible at every GOMAXPROCS — and identical to the historical
// serial build, which the paper-example and golden tests pin.
//
// The phases:
//  1. sharded degree counting: each worker counts its contiguous edge
//     range into a private per-vertex array;
//  2. shared prefix-sum: a two-level scan turns the shard counts into
//     the offsets array and, in the same pass, rewrites each shard cell
//     into the absolute start cursor of that shard's disjoint sub-range
//     of the vertex's segment;
//  3. parallel placement: each worker re-reads its edge range and writes
//     neighbors through its own cursors — ranges are disjoint by
//     construction, so no synchronization;
//  4. parallel per-vertex sort + in-place dedup (SortV/dedupV, no
//     closures, no allocations);
//  5. exclusive prefix over unique counts and a parallel compacting copy
//     into an exact-size NA (the serial builder retained the full
//     pre-dedup backing array; at large scale that over-retention is
//     tens of megabytes per direction).

// minEdgesPerWorker is the parallelism grain: a build forks only when
// every worker gets at least this many edges, so tiny graphs (the unit
// test suite) run the phases inline on the calling goroutine. Same
// grain-control idea as core.Table.Encode's minLinesPerWorker, scaled to
// the cheaper per-edge work.
const minEdgesPerWorker = 1 << 16

// buildWorkers returns the worker count for a build phase over m edges.
func buildWorkers(m int) int {
	w := runtime.GOMAXPROCS(0)
	if lim := m / minEdgesPerWorker; w > lim {
		w = lim
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelRanges splits [0, total) into w contiguous ranges and runs
// fn(worker, lo, hi) for each — inline when w == 1, on one goroutine per
// range otherwise. Every worker index in [0, w) is invoked exactly once
// (possibly with an empty range), so callers may index per-worker state
// by worker. fn receives its range as arguments, never via capture.
func parallelRanges(total, w int, fn func(worker, lo, hi int)) {
	if w <= 1 {
		fn(0, 0, total)
		return
	}
	chunk := (total + w - 1) / w
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		lo := k * chunk
		hi := lo + chunk
		if lo > total {
			lo = total
		}
		if hi > total {
			hi = total
		}
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			fn(worker, lo, hi)
		}(k, lo, hi)
	}
	wg.Wait()
}

// Radix-partitioned build thresholds. The counting-sort path above
// random-accesses an n-sized cursor array per edge (degree count and
// placement); once those cursors outgrow the cache every edge is a
// miss, and at paper scale (8 M vertices, 64 MB of cursors) the misses
// dominate construction. The radix path (cache-conscious transposition
// in the spirit of arXiv 2501.06872) first partitions edges into
// vertex-contiguous buckets with two sequential passes, then builds
// each bucket against a bucket-sized, cache-resident working set. The
// output is byte-identical either way: per-vertex sort + dedup
// canonicalizes any placement order.
const (
	// radixMinVerts: below this the cursor array is cache-sized and the
	// direct counting sort wins (no scratch pass).
	radixMinVerts = 1 << 20
	// radixBucketLog: vertices per bucket; 1<<15 keeps a bucket's cursors
	// (256 KB) L2-resident while bounding the scatter to a few hundred
	// concurrent output streams.
	radixBucketLog = 15
)

// adjFromEdges builds one traversal direction from the edge list. See
// the phase description at the top of this file; output is identical to
// a serial counting sort + per-vertex sort/dedup regardless of worker
// count. Large, dense-enough builds dispatch to the radix-partitioned
// variant, which produces the same bytes (the per-vertex sort+dedup
// canonicalizes both); the density floor (m ≥ 3n) keeps very sparse
// graphs — where the radix path's per-vertex bucket passes rival the
// random-access savings on so few edges — on the direct path.
func adjFromEdges(n int, edges []Edge, transpose bool) Adj {
	if n >= radixMinVerts && len(edges) >= 3*n {
		return adjFromEdgesRadix(n, edges, transpose)
	}
	m := len(edges)
	w := buildWorkers(m)

	// Phase 1: sharded degree counting over contiguous edge ranges.
	shard := make([][]uint64, w)
	parallelRanges(m, w, func(worker, lo, hi int) {
		c := make([]uint64, n+1)
		if transpose {
			for _, e := range edges[lo:hi] {
				c[e.Dst]++
			}
		} else {
			for _, e := range edges[lo:hi] {
				c[e.Src]++
			}
		}
		shard[worker] = c
	})

	// Phase 2: two-level prefix sum shared across shards. Level one scans
	// a vertex range per worker, rewriting each shard cell to a
	// range-local cursor and recording the range total; level two is a
	// serial exclusive prefix over the w range totals; level three adds
	// each range's base back into its cursors and fills OA. After this
	// phase shard[k][v] is the absolute NA index where worker k's slice
	// of v's segment begins — disjoint sub-ranges, in worker order, so
	// placement below needs no synchronization.
	oa := make([]uint64, n+1)
	rangeTotal := make([]uint64, w)
	parallelRanges(n, w, func(worker, lo, hi int) {
		cur := uint64(0)
		for v := lo; v < hi; v++ {
			for k := 0; k < w; k++ {
				c := shard[k][v]
				shard[k][v] = cur
				cur += c
			}
			oa[v+1] = cur
		}
		rangeTotal[worker] = cur
	})
	base := uint64(0)
	rangeBase := rangeTotal // reuse: totals become exclusive-prefix bases
	for k := 0; k < w; k++ {
		t := rangeTotal[k]
		rangeBase[k] = base
		base += t
	}
	parallelRanges(n, w, func(worker, lo, hi int) {
		b := rangeBase[worker]
		if b == 0 {
			return
		}
		for v := lo; v < hi; v++ {
			for k := 0; k < w; k++ {
				shard[k][v] += b
			}
			oa[v+1] += b
		}
	})

	// Phase 3: parallel placement into disjoint cursor ranges.
	na := make([]V, m)
	parallelRanges(m, w, func(worker, lo, hi int) {
		cur := shard[worker]
		if transpose {
			for _, e := range edges[lo:hi] {
				na[cur[e.Dst]] = e.Src
				cur[e.Dst]++
			}
		} else {
			for _, e := range edges[lo:hi] {
				na[cur[e.Src]] = e.Dst
				cur[e.Src]++
			}
		}
	})

	// Phase 4: parallel per-vertex sort + in-place dedup. The shard-0
	// count array is dead after placement; reuse it for unique counts.
	uniq := shard[0]
	parallelRanges(n, w, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			seg := na[oa[v]:oa[v+1]]
			SortV(seg)
			uniq[v] = uint64(dedupV(seg))
		}
	})

	// Phase 5: compact into an exact-size NA.
	return compactNA(n, w, oa, uniq, na)
}

// compactNA is the shared final phase of both build paths: an exclusive
// prefix over the unique counts followed by a parallel compacting copy
// into an exact-size NA. oa[v] must be the start of v's (sorted,
// deduped) segment in na and uniq[v] its unique length.
func compactNA(n, w int, oa, uniq []uint64, na []V) Adj {
	newOA := make([]uint64, n+1)
	total := uint64(0)
	for v := 0; v < n; v++ {
		newOA[v] = total
		total += uniq[v]
	}
	newOA[n] = total
	out := make([]V, total)
	parallelRanges(n, w, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			copy(out[newOA[v]:newOA[v+1]], na[oa[v]:oa[v]+uniq[v]])
		}
	})
	return Adj{OA: newOA, NA: out}
}

// adjTranspose builds the reverse traversal direction from an
// already-built Adj instead of re-running the full build over the raw
// edge list. The input's segments are sorted and unique, so a scatter
// that visits sources in ascending order writes every in-segment
// already sorted (sources arrive ascending) and already deduplicated
// ((src, dst) pairs are unique in a CSR) — no per-vertex sort, no
// dedup, no compaction pass, and the output NA is exact-size up front.
// The bytes are identical to adjFromEdges(n, edges, true): both are
// "for each vertex, the sorted unique set of in-neighbors".
func adjTranspose(n int, a Adj) Adj {
	m := len(a.NA)
	if n >= radixMinVerts && m >= 3*n {
		return adjTransposeRadix(n, a)
	}
	w := buildWorkers(m)

	// In-degree count, sharded over NA ranges, then a serial prefix.
	shard := make([][]uint64, w)
	parallelRanges(m, w, func(worker, lo, hi int) {
		c := make([]uint64, n)
		for _, d := range a.NA[lo:hi] {
			c[d]++
		}
		shard[worker] = c
	})
	counts := shard[0]
	for k := 1; k < w; k++ {
		for v, c := range shard[k] {
			counts[v] += c
		}
	}
	oa := make([]uint64, n+1)
	cur := uint64(0)
	for v := 0; v < n; v++ {
		oa[v] = cur
		cur += counts[v]
	}
	oa[n] = cur

	// Placement, partitioned by destination range: every worker scans the
	// whole CSR in source order but places only destinations in its own
	// range, through cursors no other worker touches. The duplicated
	// scans are sequential reads; the random writes — which dominate —
	// run in parallel over disjoint ranges, and each worker visiting
	// sources in ascending order is exactly the stability the sortedness
	// argument above needs.
	na := make([]V, m)
	parallelRanges(n, w, func(_, dlo, dhi int) {
		if dlo == dhi {
			return
		}
		cursor := make([]uint64, dhi-dlo)
		copy(cursor, oa[dlo:dhi])
		for src := 0; src < n; src++ {
			for _, d := range a.NA[a.OA[src]:a.OA[src+1]] {
				if int(d) >= dlo && int(d) < dhi {
					i := int(d) - dlo
					na[cursor[i]] = V(src)
					cursor[i]++
				}
			}
		}
	})
	return Adj{OA: oa, NA: na}
}

// adjTransposeRadix is adjTranspose above the radix thresholds: the
// same bucket partition as adjFromEdgesRadix (scatter normalized to
// (dst, src) through write-combining buffers, then a per-bucket
// counting pass against cache-resident cursors), minus the sort, dedup,
// and compaction the sorted-unique input makes unnecessary. Stability
// is preserved end to end — workers take contiguous source ranges, the
// (bucket, worker) prefix concatenates their slices in worker order,
// and the write-combining buffers flush in arrival order — so each
// bucket's scratch holds its edges in global source order and the
// per-bucket placement writes sorted segments.
func adjTransposeRadix(n int, a Adj) Adj {
	m := len(a.NA)
	w := buildWorkers(m)
	nb := (n + (1 << radixBucketLog) - 1) >> radixBucketLog

	// Pass A: sharded bucket counting over contiguous source ranges (the
	// ranges the scatter below reuses, so its per-worker cursor prefixes
	// line up).
	shard := make([][]uint64, w)
	parallelRanges(n, w, func(worker, lo, hi int) {
		c := make([]uint64, nb)
		for _, d := range a.NA[a.OA[lo]:a.OA[hi]] {
			c[d>>radixBucketLog]++
		}
		shard[worker] = c
	})
	bucketStart := make([]uint64, nb+1)
	cur := uint64(0)
	for b := 0; b < nb; b++ {
		bucketStart[b] = cur
		for k := 0; k < w; k++ {
			c := shard[k][b]
			shard[k][b] = cur
			cur += c
		}
	}
	bucketStart[nb] = cur

	// Pass B: scatter (dst, src) pairs into bucket-contiguous scratch in
	// source order, write-combined as in adjFromEdgesRadix.
	const wcLen = 16
	scratch := make([]Edge, m)
	parallelRanges(n, w, func(worker, lo, hi int) {
		cur := shard[worker]
		buf := make([]Edge, nb*wcLen)
		fill := make([]uint16, nb)
		for src := lo; src < hi; src++ {
			for _, d := range a.NA[a.OA[src]:a.OA[src+1]] {
				b := int(d >> radixBucketLog)
				f := fill[b]
				buf[b*wcLen+int(f)] = Edge{Src: d, Dst: V(src)}
				f++
				if f == wcLen {
					copy(scratch[cur[b]:cur[b]+wcLen], buf[b*wcLen:(b+1)*wcLen])
					cur[b] += wcLen
					f = 0
				}
				fill[b] = f
			}
		}
		for b := 0; b < nb; b++ {
			if f := int(fill[b]); f > 0 {
				copy(scratch[cur[b]:cur[b]+uint64(f)], buf[b*wcLen:b*wcLen+f])
				cur[b] += uint64(f)
			}
		}
	})

	// Pass C: per bucket — in-degree count, exclusive prefix, in-order
	// placement. Scratch order is global source order, so segments come
	// out sorted and (by pair uniqueness) deduplicated.
	oa := make([]uint64, n+1)
	na := make([]V, m)
	parallelRanges(nb, w, func(_, blo, bhi int) {
		cursor := make([]uint64, 1<<radixBucketLog)
		for b := blo; b < bhi; b++ {
			vlo := b << radixBucketLog
			vhi := vlo + (1 << radixBucketLog)
			if vhi > n {
				vhi = n
			}
			base := bucketStart[b]
			seg := scratch[base:bucketStart[b+1]]
			cnt := cursor[:vhi-vlo]
			for i := range cnt {
				cnt[i] = 0
			}
			for _, e := range seg {
				cnt[int(e.Src)-vlo]++
			}
			c := base
			for i := range cnt {
				oa[vlo+i] = c
				d := cnt[i]
				cnt[i] = c
				c += d
			}
			for _, e := range seg {
				i := int(e.Src) - vlo
				na[cnt[i]] = e.Dst
				cnt[i]++
			}
		}
	})
	oa[n] = uint64(m)
	return Adj{OA: oa, NA: na}
}

// adjFromEdgesRadix is the large-vertex build: two sequential passes
// partition the edges into vertex-contiguous buckets (sharded bucket
// counting, then a scatter through per-worker cursors into
// bucket-contiguous scratch), and each bucket is then built entirely —
// degree count, local prefix, placement, per-vertex sort + dedup —
// against its own cache-resident cursor window while its edges are
// still hot. Every random access of the counting-sort path becomes
// either sequential or bucket-local. Buckets own disjoint vertex, NA,
// and OA ranges, so the per-bucket pass parallelizes without
// synchronization; placement order differs from the counting-sort path
// but the canonicalizing sort+dedup makes the output bytes identical.
func adjFromEdgesRadix(n int, edges []Edge, transpose bool) Adj {
	m := len(edges)
	w := buildWorkers(m)
	nb := (n + (1 << radixBucketLog) - 1) >> radixBucketLog

	// Pass A: sharded bucket counting — nb counters per worker, resident.
	shard := make([][]uint64, w)
	parallelRanges(m, w, func(worker, lo, hi int) {
		c := make([]uint64, nb)
		if transpose {
			for _, e := range edges[lo:hi] {
				c[e.Dst>>radixBucketLog]++
			}
		} else {
			for _, e := range edges[lo:hi] {
				c[e.Src>>radixBucketLog]++
			}
		}
		shard[worker] = c
	})

	// Exclusive prefix in (bucket, worker) order: shard[k][b] becomes the
	// absolute scatter cursor of worker k's slice of bucket b, and
	// bucketStart[b] the bucket's range start in scratch and na.
	bucketStart := make([]uint64, nb+1)
	cur := uint64(0)
	for b := 0; b < nb; b++ {
		bucketStart[b] = cur
		for k := 0; k < w; k++ {
			c := shard[k][b]
			shard[k][b] = cur
			cur += c
		}
	}
	bucketStart[nb] = cur

	// Pass B: scatter into bucket-contiguous scratch, normalized to
	// (key, neighbor) so the per-bucket pass is direction-free. Cursor
	// sub-ranges are disjoint by construction. Edges stage in a
	// bucket-indexed write-combining buffer (wcLen entries per bucket,
	// the whole buffer cache-resident) and land in scratch in contiguous
	// wcLen-sized bursts — the propagation-blocking trick: the scatter's
	// few hundred output streams cost full-line bursts instead of one
	// cache/TLB touch per edge.
	const wcLen = 16
	scratch := make([]Edge, m)
	parallelRanges(m, w, func(worker, lo, hi int) {
		cur := shard[worker]
		buf := make([]Edge, nb*wcLen)
		fill := make([]uint16, nb)
		for _, e := range edges[lo:hi] {
			if transpose {
				e = Edge{Src: e.Dst, Dst: e.Src}
			}
			b := int(e.Src >> radixBucketLog)
			f := fill[b]
			buf[b*wcLen+int(f)] = e
			f++
			if f == wcLen {
				copy(scratch[cur[b]:cur[b]+wcLen], buf[b*wcLen:(b+1)*wcLen])
				cur[b] += wcLen
				f = 0
			}
			fill[b] = f
		}
		for b := 0; b < nb; b++ {
			if f := int(fill[b]); f > 0 {
				copy(scratch[cur[b]:cur[b]+uint64(f)], buf[b*wcLen:b*wcLen+f])
				cur[b] += uint64(f)
			}
		}
	})

	// Pass C: per bucket — degree count, exclusive prefix, placement,
	// per-vertex sort + dedup — all within the bucket's cursor window and
	// NA range, touched while the bucket's scratch edges are cache-hot.
	oa := make([]uint64, n+1)
	uniq := make([]uint64, n)
	na := make([]V, m)
	parallelRanges(nb, w, func(_, blo, bhi int) {
		cursor := make([]uint64, 1<<radixBucketLog)
		for b := blo; b < bhi; b++ {
			vlo := b << radixBucketLog
			vhi := vlo + (1 << radixBucketLog)
			if vhi > n {
				vhi = n
			}
			base := bucketStart[b]
			seg := scratch[base:bucketStart[b+1]]
			cnt := cursor[:vhi-vlo]
			for i := range cnt {
				cnt[i] = 0
			}
			for _, e := range seg {
				cnt[int(e.Src)-vlo]++
			}
			c := base
			for i := range cnt {
				oa[vlo+i] = c
				d := cnt[i]
				cnt[i] = c
				c += d
			}
			for _, e := range seg {
				i := int(e.Src) - vlo
				na[cnt[i]] = e.Dst
				cnt[i]++
			}
			// After placement cnt[i] is the end of vertex vlo+i's segment.
			for i := range cnt {
				s := na[oa[vlo+i]:cnt[i]]
				SortV(s)
				uniq[vlo+i] = uint64(dedupV(s))
			}
		}
	})
	oa[n] = uint64(m)

	return compactNA(n, w, oa, uniq, na)
}
