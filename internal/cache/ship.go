package cache

import "popt/internal/mem"

// SHiP (Wu et al., MICRO 2011) predicts re-reference from a signature: a
// Signature History Counter Table (SHCT) of saturating counters learns
// whether lines inserted under a signature were reused before eviction.
// The paper evaluates two variants: SHiP-PC (signature = instruction
// address) and SHiP-Mem (signature = memory region). Both fail on graph
// data because the same instruction — and the same address range — mixes
// hot hub vertices and cold tail vertices (Section II-B).

// shipSignature extracts a table index from an access.
type shipSignature func(acc mem.Access) uint32

// SHiP layers signature-based insertion on an SRRIP backend.
type SHiP struct {
	rripBase
	name string
	sig  shipSignature
	size int // SHCT entries
	// shct holds 2-bit saturating counters, each stored as its value
	// minus one, so the zero value is the initial "weakly not reused"
	// state and a fresh table stays untouched zero pages until an access
	// writes an entry.
	shct    []int8
	lineSig []uint32
	reused  []bool
}

const (
	shctSize = 1 << 14
	shctMax  = 3
	// shctBias is the offset between a counter's value and its stored
	// form: stored = value - shctBias.
	shctBias = 1
)

// NewSHiPPC returns SHiP with PC-indexed signatures.
func NewSHiPPC() *SHiP {
	p := &SHiP{name: "SHiP-PC", size: shctSize, sig: func(a mem.Access) uint32 { return uint32(a.PC) % shctSize }}
	p.bits = 2
	return p
}

// NewSHiPMem returns SHiP with memory-region signatures. The paper's
// idealized variant tracks individual cache lines with infinite storage; we
// match that by hashing the line address over a table large enough that
// collisions are rare at simulated scales.
func NewSHiPMem() *SHiP {
	const memTable = 1 << 22
	p := &SHiP{name: "SHiP-Mem", size: memTable, sig: func(a mem.Access) uint32 {
		return uint32((a.Addr >> mem.LineShift) % memTable)
	}}
	p.bits = 2
	return p
}

// Name implements Policy.
func (p *SHiP) Name() string { return p.name }

// Bind implements Policy.
func (p *SHiP) Bind(g Geometry) {
	p.rripBase.Bind(g)
	if len(p.shct) != p.size {
		p.shct = make([]int8, p.size) // all weakly not-reused
	}
	p.lineSig = make([]uint32, g.Sets*g.Ways)
	p.reused = make([]bool, g.Sets*g.Ways)
}

// OnHit implements Policy: mark the line reused and credit its signature.
func (p *SHiP) OnHit(set, way int, acc mem.Access) {
	p.promote(set, way)
	idx := set*p.g.Ways + way
	if !p.reused[idx] {
		p.reused[idx] = true
		if s := p.lineSig[idx]; p.shct[s] < shctMax-shctBias {
			p.shct[s]++
		}
	}
}

// OnFill implements Policy: insertion RRPV depends on the signature's
// learned reuse.
func (p *SHiP) OnFill(set, way int, acc mem.Access) {
	idx := set*p.g.Ways + way
	s := p.sig(acc)
	p.lineSig[idx] = s
	p.reused[idx] = false
	if p.shct[s] == -shctBias {
		p.insert(set, way, p.max) // predicted dead: distant
	} else {
		p.insert(set, way, p.max-1)
	}
}

// OnEvict implements Policy: an un-reused eviction debits the signature.
func (p *SHiP) OnEvict(set, way int) {
	idx := set*p.g.Ways + way
	if !p.reused[idx] {
		if s := p.lineSig[idx]; p.shct[s] > -shctBias {
			p.shct[s]--
		}
	}
}

// Victim implements Policy.
func (p *SHiP) Victim(set int, _ []Line, _ mem.Access) int { return p.victim(set) }
