package cache

import (
	"math/bits"

	"popt/internal/mem"
)

// Batch-probe datapath. Trace replay delivers millions of decoded events
// to one cache level; paying a full exported-method call — set-index
// branch, statistics read-modify-writes against memory — per event is
// measurable overhead once PR 5's SoA layout made the per-probe work
// itself cheap. The replay loops therefore decode events into a small
// fixed-size batch of Probes and hand the whole batch to AccessBatch,
// which resolves the set-mapping strategy once per batch, keeps the
// statistics deltas in registers until the batch ends, and processes the
// probes strictly in decoded order — so every policy callback, fill,
// eviction and counter lands exactly as the one-event-at-a-time path
// would. The batch buffer is the caller's (a stack array in the replay
// loop); AccessBatch borrows it for the call and retains nothing, so it
// never aliases policy-borrowed line storage.

// BatchMax is the fixed capacity of a replay probe batch. Small enough
// to live on the replay loop's stack and stay L1-resident, large enough
// to amortize the per-batch setup over the common long runs between
// hook events.
const BatchMax = 64

// ProbeKind distinguishes the three event shapes a cache level sees
// during LLC-trace replay.
type ProbeKind uint8

const (
	// ProbeRead and ProbeWrite are demand accesses (Addr is the full
	// address, PC the access site): on miss the level fills from DRAM.
	ProbeRead ProbeKind = iota
	ProbeWrite
	// ProbeWB is an upper-level dirty victim offered to the level (Addr
	// is the line address): present lines are marked dirty, absent ones
	// write through to DRAM.
	ProbeWB
)

// Probe is one decoded replay event. set is scratch space AccessBatch
// fills during its set-index pass; callers construct Probes with the
// exported fields only.
type Probe struct {
	Addr uint64
	set  uint32
	PC   uint16
	Kind ProbeKind
}

// setIndexBatch computes every probe's set index with the set-mapping
// branch resolved once for the whole batch instead of once per event.
//
//popt:hot
func (l *Level) setIndexBatch(ps []Probe) {
	if l.setMask != ^uint64(0) {
		mask := l.setMask
		for i := range ps {
			ps[i].set = uint32((ps[i].Addr >> mem.LineShift) & mask)
		}
	} else {
		div := l.setDiv
		for i := range ps {
			ps[i].set = uint32(div.Mod(ps[i].Addr >> mem.LineShift))
		}
	}
}

// AccessBatch runs a batch of decoded replay events through the level in
// order and returns the DRAM traffic they generated. It implements
// exactly the hierarchy's LLC arm: a demand probe that hits updates
// dirty state and the policy's hit metadata; one that misses counts a
// DRAM read, fills (fillAt), and charges a DRAM write if the fill
// displaced a dirty victim; a writeback probe marks a present line dirty
// and writes through to DRAM otherwise. Because the probes are processed
// strictly in order with unchanged per-event semantics, every counter
// and every policy decision is byte-identical to issuing the same events
// through Access/Fill/MarkDirty one at a time — the batch only hoists
// the set-index branch and the statistics memory traffic out of the
// per-event path. ps is borrowed for the call; nothing in it is
// retained.
//
//popt:hot
func (l *Level) AccessBatch(ps []Probe) (dramReads, dramWrites uint64) {
	l.setIndexBatch(ps)
	var accesses, hits, misses, wbHits uint64
	ways := l.ways
	for i := range ps {
		p := &ps[i]
		set := int(p.set)
		la := p.Addr &^ uint64(mem.LineSize-1)
		base := set * ways
		tags := l.tags[base : base+ways]
		way := -1
		for w := range tags {
			if tags[w] == la {
				way = w
				break
			}
		}
		if p.Kind == ProbeWB {
			if way < 0 {
				dramWrites++
			} else {
				l.lines[base+way].Dirty = true
				l.dirty[set] |= 1 << uint(way)
				wbHits++
			}
			continue
		}
		accesses++
		acc := mem.Access{Addr: p.Addr, PC: p.PC, Write: p.Kind == ProbeWrite}
		if way >= 0 {
			hits++
			if acc.Write {
				l.lines[base+way].Dirty = true
				l.dirty[set] |= 1 << uint(way)
			}
			if l.plru != nil {
				l.plru.OnHit(set, way, acc)
			} else {
				l.pol.OnHit(set, way, acc)
			}
			continue
		}
		misses++
		dramReads++
		if ev, ok := l.fillAt(set, la, acc); ok && ev.Dirty {
			dramWrites++
		}
	}
	l.Stats.Accesses += accesses
	l.Stats.Hits += hits
	l.Stats.Misses += misses
	l.Stats.Writebacks += wbHits
	return dramReads, dramWrites
}

// fillAt is Fill with the address mapping already done: it installs the
// line with address la (the line-aligned form of acc's address) into
// set. Batch callers resolve the set once per probe; Fill wraps it for
// the one-event path.
//
//popt:hot
func (l *Level) fillAt(set int, la uint64, acc mem.Access) (evicted Line, wasEvicted bool) {
	base := set * l.ways
	var way int
	if free := ^l.valid[set] & l.demand; free != 0 {
		way = bits.TrailingZeros64(free)
	} else {
		ws := l.lines[base : base+l.ways]
		if l.plru != nil {
			way = l.plru.Victim(set, ws, acc)
		} else {
			way = l.pol.Victim(set, ws, acc)
		}
		if way < l.resvd || way >= l.ways {
			l.badVictim(way)
		}
		evicted, wasEvicted = ws[way], true
		l.Stats.Evictions++
		l.pol.OnEvict(set, way)
	}
	l.lines[base+way] = Line{Valid: true, Dirty: acc.Write, Addr: la, PC: acc.PC}
	l.tags[base+way] = la
	bit := uint64(1) << uint(way)
	l.valid[set] |= bit
	if acc.Write {
		l.dirty[set] |= bit
	} else {
		l.dirty[set] &^= bit
	}
	if l.plru != nil {
		l.plru.OnFill(set, way, acc)
	} else {
		l.pol.OnFill(set, way, acc)
	}
	return evicted, wasEvicted
}
