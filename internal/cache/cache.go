// Package cache is a trace-driven, multi-level, set-associative cache
// hierarchy simulator with pluggable replacement policies. It plays the
// role of the Pin-based cache simulator the paper uses for all locality
// results: kernels feed it the logical memory reference stream and it
// reports per-level hit/miss statistics.
//
// The package provides the baseline policy zoo the paper compares against —
// LRU, Bit-PLRU, Random, SRRIP/BRRIP/DRRIP, SHiP-PC, SHiP-Mem, Hawkeye and
// GRASP — while the paper's own T-OPT and P-OPT policies live in
// internal/core and plug into the same Policy interface.
package cache

import (
	"fmt"
	"math/bits"

	"popt/internal/mem"
)

// Line is one cache line's bookkeeping. Addr is the full line-aligned
// address (a simulator convenience standing in for tag+index).
type Line struct {
	Valid bool
	Dirty bool
	Addr  uint64
	PC    uint16
}

// Geometry describes a cache level to a policy at bind time.
type Geometry struct {
	Sets int
	Ways int
	// ReservedWays [0, ReservedWays) never hold demand data; P-OPT pins
	// Rereference Matrix columns there. Victim must not return them.
	ReservedWays int
}

// Policy decides replacement within one cache level. Implementations keep
// per-line metadata sized at Bind time. The Level calls OnHit for every
// hit, Victim+OnEvict+OnFill for every miss fill (Victim is skipped when an
// invalid way exists), all with the triggering access.
type Policy interface {
	Name() string
	Bind(g Geometry)
	OnHit(set, way int, acc mem.Access)
	OnFill(set, way int, acc mem.Access)
	// OnEvict is called just before a valid line at (set, way) is replaced.
	OnEvict(set, way int)
	// Victim selects the way to replace in set; every way in
	// [ReservedWays, Ways) holds a valid line when called. lines aliases
	// the set's storage and must not be modified.
	Victim(set int, lines []Line, acc mem.Access) int
}

// Stats accumulates per-level counters.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// MissRate returns Misses/Accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.Writebacks += other.Writebacks
}

// tagSentinel marks an invalid or reserved way in the SoA tag index. Every
// probe key is a line-aligned address (low LineShift bits zero), so the
// all-ones pattern can never equal a real tag and Lookup's scan needs no
// separate validity branch.
const tagSentinel = ^uint64(0)

// Level is one set-associative cache level.
//
// Storage is kept in two synchronized forms. The canonical form is lines,
// an array-of-structs that policies borrow in Victim (the borrow contract
// enforced by policycontract/borrowflow/NewCheckedPolicy is expressed over
// []Line and is untouched by the datapath layout). The probe path never
// reads it: a structure-of-arrays index — tags, holding each way's
// line-aligned address or tagSentinel, plus per-set valid/dirty bitmasks —
// serves Lookup with a single-compare scan over a contiguous uint64 slice,
// Fill's free-way pick with one TrailingZeros64, and Occupancy/Reserve
// scans with popcounts. Every mutation (Fill, Invalidate, Reserve, Flush,
// dirty-bit updates) writes both forms.
type Level struct {
	Name  string
	sets  int
	ways  int
	resvd int
	lines []Line   // canonical AoS storage, sets*ways, row-major by set
	tags  []uint64 // SoA index: Addr of valid demand ways, else tagSentinel
	valid []uint64 // per-set way bitmask: bit w set iff way w holds a line
	dirty []uint64 // per-set way bitmask: bit w set iff way w is dirty
	// demand masks ways [resvd, ways): the ways Fill may allocate into.
	demand uint64
	// setMask is sets-1 when the set count is a power of two (the L1/L2
	// geometries); the all-ones sentinel selects the fastmod path instead,
	// covering general counts like the paper LLC's 24576 sets.
	setMask uint64
	// setDiv strength-reduces SetIndex's modulo by a non-power-of-two set
	// count to a precomputed Lemire reciprocal.
	setDiv mem.Divider
	pol    Policy
	// plru is non-nil when pol is the fixed L1/L2 Bit-PLRU, devirtualizing
	// (and inlining) its callbacks on the access path. Wrapped policies
	// (NewCheckedPolicy) fall back to the interface calls.
	plru  *BitPLRU
	Stats Stats
}

// lowWays returns the bitmask of ways [0, n).
func lowWays(n int) uint64 { return ^uint64(0) >> (64 - uint(n)) }

// NewLevel builds a level of the given total size with the given
// associativity and policy. The set count need not be a power of two
// (the paper's 24 MB/16-way LLC has 24576 sets; its footnote 3 gives the
// modulo mapping for non-power-of-two set counts, which is used here).
func NewLevel(name string, sizeBytes, ways int, pol Policy) *Level {
	sets := sizeBytes / (ways * mem.LineSize)
	if sets <= 0 {
		panic(fmt.Sprintf("cache %s: nonpositive set count (size=%d ways=%d)", name, sizeBytes, ways))
	}
	if ways > 64 {
		panic(fmt.Sprintf("cache %s: associativity %d exceeds the 64-way bitmask datapath", name, ways))
	}
	l := &Level{
		Name:    name,
		sets:    sets,
		ways:    ways,
		lines:   make([]Line, sets*ways),
		tags:    make([]uint64, sets*ways),
		valid:   make([]uint64, sets),
		dirty:   make([]uint64, sets),
		demand:  lowWays(ways),
		setMask: ^uint64(0),
		setDiv:  mem.NewDivider(uint64(sets)),
		pol:     pol,
	}
	if sets&(sets-1) == 0 {
		l.setMask = uint64(sets - 1)
	}
	if bp, ok := pol.(*BitPLRU); ok {
		l.plru = bp
	}
	for i := range l.tags {
		l.tags[i] = tagSentinel
	}
	pol.Bind(Geometry{Sets: sets, Ways: ways})
	return l
}

// Sets returns the number of sets.
func (l *Level) Sets() int { return l.sets }

// Ways returns the associativity.
func (l *Level) Ways() int { return l.ways }

// ReservedWays returns how many ways are reserved for metadata.
func (l *Level) ReservedWays() int { return l.resvd }

// Reserve removes the first n ways from demand use (Intel CAT-style way
// partitioning, used by P-OPT to pin Rereference Matrix columns). Any
// demand lines currently in reserved ways are invalidated; dirty ones are
// returned so the caller can write them back (a real CAT repartition
// flushes displaced dirty lines to the next level — dropping them would
// silently lose stores). Evicted valid lines count as evictions.
// The policy is re-bound with the new geometry.
func (l *Level) Reserve(n int) (dirty []Line) {
	if n < 0 || n >= l.ways {
		panic(fmt.Sprintf("cache %s: cannot reserve %d of %d ways", l.Name, n, l.ways))
	}
	l.resvd = n
	l.demand = lowWays(l.ways) &^ lowWays(n)
	resMask := lowWays(n)
	for s := 0; s < l.sets; s++ {
		occupied := l.valid[s] & resMask
		l.Stats.Evictions += uint64(bits.OnesCount64(occupied))
		for m := l.dirty[s] & occupied; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			dirty = append(dirty, l.lines[s*l.ways+w])
			l.Stats.Writebacks++
		}
		for w := 0; w < n; w++ {
			l.lines[s*l.ways+w] = Line{}
			l.tags[s*l.ways+w] = tagSentinel
		}
		l.valid[s] &^= resMask
		l.dirty[s] &^= resMask
	}
	l.pol.Bind(Geometry{Sets: l.sets, Ways: l.ways, ReservedWays: n})
	return dirty
}

// Policy returns the bound replacement policy.
func (l *Level) Policy() Policy { return l.pol }

// ReleasePolicy drops the level's reference to its replacement policy
// once a run is over, so a caller that keeps the level for its counters
// does not also keep the policy's state alive (SHiP-Mem's signature
// table reserves 4 MiB, of which a run touches only the entries its
// accesses write). The level must not be accessed, filled, reserved or
// flushed afterwards.
func (l *Level) ReleasePolicy() { l.pol = nil }

// SetIndex maps a line address to its set: a mask when the set count is a
// power of two, the fastmod reciprocal otherwise. The branch is perfectly
// predicted per level.
//
//popt:hot
func (l *Level) SetIndex(lineAddr uint64) int {
	if l.setMask != ^uint64(0) {
		return int((lineAddr >> mem.LineShift) & l.setMask)
	}
	return int(l.setDiv.Mod(lineAddr >> mem.LineShift))
}

// set returns the slice of ways for set s.
func (l *Level) set(s int) []Line { return l.lines[s*l.ways : (s+1)*l.ways] }

// probe scans set's tag row for lineAddr, returning the way or -1. The
// scan covers the whole row: reserved and invalid ways hold tagSentinel,
// which no line-aligned address can equal, so each way costs exactly one
// compare. Kept as a leaf under the inlining budget so Access, Fill,
// MarkDirty and Invalidate absorb it (and SetIndex) without a call.
func (l *Level) probe(set int, lineAddr uint64) int {
	base := set * l.ways
	tags := l.tags[base : base+l.ways]
	for w := range tags {
		if tags[w] == lineAddr {
			return w
		}
	}
	return -1
}

// Lookup probes for the line with the given line-aligned address without
// updating statistics or replacement state; it reports presence (used by
// writeback handling).
//
//popt:hot
func (l *Level) Lookup(lineAddr uint64) (set, way int, ok bool) {
	set = l.SetIndex(lineAddr)
	way = l.probe(set, lineAddr)
	return set, way, way >= 0
}

// Access performs a demand access. It returns true on hit. On miss the
// caller is responsible for filling (after resolving lower levels).
//
//popt:hot
func (l *Level) Access(acc mem.Access) bool {
	l.Stats.Accesses++
	la := acc.LineAddr()
	set := l.SetIndex(la)
	if way := l.probe(set, la); way >= 0 {
		l.Stats.Hits++
		if acc.Write {
			l.lines[set*l.ways+way].Dirty = true
			l.dirty[set] |= 1 << uint(way)
		}
		if l.plru != nil {
			l.plru.OnHit(set, way, acc)
		} else {
			l.pol.OnHit(set, way, acc)
		}
		return true
	}
	l.Stats.Misses++
	return false
}

// Fill installs the line of acc, returning the evicted line if a valid one
// was displaced. A free way, when one exists, is found with a single
// TrailingZeros64 over the set's inverted valid mask (lowest free demand
// way first, matching the AoS scan this replaced).
//
//popt:hot
func (l *Level) Fill(acc mem.Access) (evicted Line, wasEvicted bool) {
	la := acc.LineAddr()
	return l.fillAt(l.SetIndex(la), la, acc)
}

// badVictim panics with the invalid-victim message. The panic (and its fmt
// boxing) lives here rather than in Fill so nothing escapes on Fill's hot
// path and the hot-path baseline stays escape-free; noinline stops the
// compiler from folding the boxing back into the caller.
//
//go:noinline
func (l *Level) badVictim(way int) {
	panic(fmt.Sprintf("cache %s: policy %s returned invalid victim way %d (reserved=%d ways=%d)",
		l.Name, l.pol.Name(), way, l.resvd, l.ways))
}

// MarkDirty sets the dirty bit if the line is present, reporting presence.
// Used to sink writebacks from an upper level.
//
//popt:hot
func (l *Level) MarkDirty(lineAddr uint64) bool {
	set := l.SetIndex(lineAddr)
	way := l.probe(set, lineAddr)
	if way < 0 {
		return false
	}
	l.lines[set*l.ways+way].Dirty = true
	l.dirty[set] |= 1 << uint(way)
	l.Stats.Writebacks++
	return true
}

// Invalidate drops the line if present, returning whether it was dirty.
func (l *Level) Invalidate(lineAddr uint64) (dirty, present bool) {
	set := l.SetIndex(lineAddr)
	way := l.probe(set, lineAddr)
	if way < 0 {
		return false, false
	}
	dirty = l.dirty[set]&(1<<uint(way)) != 0
	l.lines[set*l.ways+way] = Line{}
	l.tags[set*l.ways+way] = tagSentinel
	l.valid[set] &^= 1 << uint(way)
	l.dirty[set] &^= 1 << uint(way)
	return dirty, true
}

// Occupancy returns the number of valid demand lines (diagnostics/tests):
// a popcount over the per-set valid masks rather than a walk of the line
// array.
func (l *Level) Occupancy() int {
	n := 0
	for _, v := range l.valid {
		n += bits.OnesCount64(v)
	}
	return n
}

// Flush invalidates every line (stats retained) and re-binds the policy so
// replacement metadata for the dropped lines — LRU stacks, RRPVs, SHiP
// outcome bits — does not survive into the empty cache. Without the
// re-bind a post-flush fill could inherit the flushed working set's
// recency state.
func (l *Level) Flush() {
	for i := range l.lines {
		l.lines[i] = Line{}
	}
	for i := range l.tags {
		l.tags[i] = tagSentinel
	}
	for s := range l.valid {
		l.valid[s] = 0
		l.dirty[s] = 0
	}
	l.pol.Bind(Geometry{Sets: l.sets, Ways: l.ways, ReservedWays: l.resvd})
}
