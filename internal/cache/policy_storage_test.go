package cache

import (
	"math/rand"
	"testing"

	"popt/internal/mem"
)

// This file pins SHiP's and Hawkeye's compact storage against test-side
// copies of their straightforward representations: SHiP's counters as
// plain uint8 values initialized to 1, and Hawkeye's OPTgen history as two
// maps keyed by the same line address. Both pairs must pick every victim
// identically and end with identical level counters.

// shipOracle is SHiP with an SHCT of unbiased uint8 counters.
type shipOracle struct {
	rripBase
	name    string
	sig     shipSignature
	size    int
	shct    []uint8
	lineSig []uint32
	reused  []bool
}

func (p *shipOracle) Name() string { return p.name + "-oracle" }

func (p *shipOracle) Bind(g Geometry) {
	p.rripBase.Bind(g)
	if len(p.shct) != p.size {
		p.shct = make([]uint8, p.size)
		for i := range p.shct {
			p.shct[i] = 1
		}
	}
	p.lineSig = make([]uint32, g.Sets*g.Ways)
	p.reused = make([]bool, g.Sets*g.Ways)
}

func (p *shipOracle) OnHit(set, way int, _ mem.Access) {
	p.promote(set, way)
	idx := set*p.g.Ways + way
	if !p.reused[idx] {
		p.reused[idx] = true
		if s := p.lineSig[idx]; p.shct[s] < shctMax {
			p.shct[s]++
		}
	}
}

func (p *shipOracle) OnFill(set, way int, acc mem.Access) {
	idx := set*p.g.Ways + way
	s := p.sig(acc)
	p.lineSig[idx] = s
	p.reused[idx] = false
	if p.shct[s] == 0 {
		p.insert(set, way, p.max)
	} else {
		p.insert(set, way, p.max-1)
	}
}

func (p *shipOracle) OnEvict(set, way int) {
	idx := set*p.g.Ways + way
	if !p.reused[idx] {
		if s := p.lineSig[idx]; p.shct[s] > 0 {
			p.shct[s]--
		}
	}
}

func (p *shipOracle) Victim(set int, _ []Line, _ mem.Access) int { return p.victim(set) }

// newSHiPOracle copies the signature function and table size of a real
// SHiP variant.
func newSHiPOracle(real *SHiP) *shipOracle {
	p := &shipOracle{name: real.name, sig: real.sig, size: real.size}
	p.bits = 2
	return p
}

// hawkeyeOracle is Hawkeye with per-sampled-set history kept in two maps.
// Everything outside OPTgen's history is the real policy's.
type hawkeyeOracle struct {
	Hawkeye
	hist map[int]*hawkeyeOracleSample
}

type hawkeyeOracleSample struct {
	time      uint64
	occupancy []uint8
	lastTime  map[uint64]uint64
	lastPC    map[uint64]uint16
}

func (p *hawkeyeOracle) Name() string { return "Hawkeye-oracle" }

func (p *hawkeyeOracle) Bind(g Geometry) {
	p.Hawkeye.Bind(g)
	p.hist = make(map[int]*hawkeyeOracleSample)
}

func (p *hawkeyeOracle) observe(set int, acc mem.Access) {
	if set%hawkeyeSamplePct != 0 {
		return
	}
	s := p.hist[set]
	if s == nil {
		s = &hawkeyeOracleSample{
			occupancy: make([]uint8, p.window),
			lastTime:  make(map[uint64]uint64),
			lastPC:    make(map[uint64]uint16),
		}
		p.hist[set] = s
	}
	la := acc.LineAddr()
	now := s.time
	s.time++
	s.occupancy[now%p.window] = 0
	capacity := uint8(p.g.Ways - p.g.ReservedWays)
	if t0, seen := s.lastTime[la]; seen && now-t0 < p.window {
		optHit := true
		for t := t0; t < now; t++ {
			if s.occupancy[t%p.window] >= capacity {
				optHit = false
				break
			}
		}
		if optHit {
			for t := t0; t < now; t++ {
				s.occupancy[t%p.window]++
			}
		}
		p.train(s.lastPC[la], optHit)
	}
	s.lastTime[la] = now
	s.lastPC[la] = acc.PC
	if len(s.lastTime) > 4*int(p.window) {
		//lint:ordered
		for a, t := range s.lastTime {
			if now-t >= p.window {
				delete(s.lastTime, a)
				delete(s.lastPC, a)
			}
		}
	}
}

func (p *hawkeyeOracle) OnHit(set, way int, acc mem.Access) {
	p.observe(set, acc)
	idx := set*p.g.Ways + way
	p.linePC[idx] = acc.PC
	if p.friendly(acc.PC) {
		p.rrpv[idx], p.lineFr[idx] = 0, true
	} else {
		p.rrpv[idx], p.lineFr[idx] = hawkeyeMaxRRPV, false
	}
}

func (p *hawkeyeOracle) OnFill(set, way int, acc mem.Access) {
	p.observe(set, acc)
	idx := set*p.g.Ways + way
	p.linePC[idx] = acc.PC
	if p.friendly(acc.PC) {
		base := set * p.g.Ways
		for w := p.g.ReservedWays; w < p.g.Ways; w++ {
			if w != way && p.lineFr[base+w] && p.rrpv[base+w] < hawkeyeMaxRRPV-1 {
				p.rrpv[base+w]++
			}
		}
		p.rrpv[idx], p.lineFr[idx] = 0, true
	} else {
		p.rrpv[idx], p.lineFr[idx] = hawkeyeMaxRRPV, false
	}
}

// victimLog records every victim its policy picks.
type victimLog struct {
	Policy
	victims []int
}

func (v *victimLog) Victim(set int, lines []Line, acc mem.Access) int {
	w := v.Policy.Victim(set, lines, acc)
	v.victims = append(v.victims, set<<8|w)
	return w
}

// storageStream drives l with a seeded stream mixing a reused hot region
// (some PCs) with one-shot cold lines (other PCs) and writes. Halfway
// through it reserves two ways, which re-binds the policy mid-stream.
func storageStream(l *Level, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if i == n/2 {
			l.Reserve(2)
		}
		var a mem.Access
		if rng.Intn(3) > 0 {
			a.Addr = uint64(rng.Intn(1024)) * mem.LineSize
			a.PC = uint16(rng.Intn(6))
		} else {
			a.Addr = uint64(rng.Intn(1<<24)) * mem.LineSize
			a.PC = uint16(6 + rng.Intn(6))
		}
		a.Write = rng.Intn(5) == 0
		if !l.Access(a) {
			l.Fill(a)
		}
	}
}

func TestPolicyStorageMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		real   func() Policy
		oracle func() Policy
	}{
		{name: "SHiP-PC",
			real:   func() Policy { return NewSHiPPC() },
			oracle: func() Policy { return newSHiPOracle(NewSHiPPC()) }},
		{name: "SHiP-Mem",
			real:   func() Policy { return NewSHiPMem() },
			oracle: func() Policy { return newSHiPOracle(NewSHiPMem()) }},
		{name: "Hawkeye",
			real:   func() Policy { return NewHawkeye() },
			oracle: func() Policy { return &hawkeyeOracle{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2, 3} {
				got, want := &victimLog{Policy: tc.real()}, &victimLog{Policy: tc.oracle()}
				lg := NewLevel("G", 64*8*mem.LineSize, 8, got)
				lw := NewLevel("W", 64*8*mem.LineSize, 8, want)
				storageStream(lg, seed, 100000)
				storageStream(lw, seed, 100000)
				if lg.Stats != lw.Stats {
					t.Fatalf("seed %d: stats %+v, oracle %+v", seed, lg.Stats, lw.Stats)
				}
				if len(got.victims) != len(want.victims) {
					t.Fatalf("seed %d: %d victims, oracle %d", seed, len(got.victims), len(want.victims))
				}
				for i := range got.victims {
					if got.victims[i] != want.victims[i] {
						t.Fatalf("seed %d: victim %d is set/way %#x, oracle %#x", seed, i, got.victims[i], want.victims[i])
					}
				}
				if len(got.victims) == 0 {
					t.Fatalf("seed %d: stream evicted nothing", seed)
				}
			}
		})
	}
}
