package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"popt/internal/mem"
)

// refLevel is a deliberately naive set-associative level: a slice of lines
// per set, linear scans for hits and free ways, and a plain modulo for the
// set mapping. It shares no datapath code with Level (no tag index, no
// bitmasks, no fastmod, no batch path) and hosts the same Policy objects,
// so a diff between the two checks the real datapath against an
// independent statement of the same semantics.
type refLevel struct {
	sets, ways, resvd int
	lines             [][]Line
	pol               Policy
	stats             Stats
}

func newRefLevel(sizeBytes, ways int, pol Policy) *refLevel {
	sets := sizeBytes / (ways * mem.LineSize)
	r := &refLevel{sets: sets, ways: ways, pol: pol, lines: make([][]Line, sets)}
	for s := range r.lines {
		r.lines[s] = make([]Line, ways)
	}
	pol.Bind(Geometry{Sets: sets, Ways: ways})
	return r
}

func (r *refLevel) setOf(la uint64) int { return int((la / mem.LineSize) % uint64(r.sets)) }

// find returns the way holding la in set, or -1.
func (r *refLevel) find(set int, la uint64) int {
	for w, ln := range r.lines[set] {
		if ln.Valid && ln.Addr == la {
			return w
		}
	}
	return -1
}

func (r *refLevel) access(acc mem.Access) bool {
	r.stats.Accesses++
	la := acc.LineAddr()
	set := r.setOf(la)
	w := r.find(set, la)
	if w < 0 {
		r.stats.Misses++
		return false
	}
	r.stats.Hits++
	if acc.Write {
		r.lines[set][w].Dirty = true
	}
	r.pol.OnHit(set, w, acc)
	return true
}

func (r *refLevel) fill(acc mem.Access) (evicted Line, wasEvicted bool) {
	la := acc.LineAddr()
	set := r.setOf(la)
	way := -1
	for w := r.resvd; w < r.ways; w++ {
		if !r.lines[set][w].Valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = r.pol.Victim(set, r.lines[set], acc)
		if way < r.resvd || way >= r.ways {
			panic(fmt.Sprintf("reference level: victim way %d outside [%d,%d)", way, r.resvd, r.ways))
		}
		evicted, wasEvicted = r.lines[set][way], true
		r.stats.Evictions++
		r.pol.OnEvict(set, way)
	}
	r.lines[set][way] = Line{Valid: true, Dirty: acc.Write, Addr: la, PC: acc.PC}
	r.pol.OnFill(set, way, acc)
	return evicted, wasEvicted
}

func (r *refLevel) markDirty(la uint64) bool {
	set := r.setOf(la)
	w := r.find(set, la)
	if w < 0 {
		return false
	}
	r.lines[set][w].Dirty = true
	r.stats.Writebacks++
	return true
}

func (r *refLevel) invalidate(la uint64) (dirty, present bool) {
	set := r.setOf(la)
	w := r.find(set, la)
	if w < 0 {
		return false, false
	}
	dirty = r.lines[set][w].Dirty
	r.lines[set][w] = Line{}
	return dirty, true
}

// reserve mirrors Level.Reserve: lines in the first n ways are dropped
// (counted as evictions), dirty ones are returned in set-then-way order
// and counted as writebacks, and the policy is re-bound.
func (r *refLevel) reserve(n int) (dirty []Line) {
	r.resvd = n
	for s := range r.lines {
		for w := 0; w < n; w++ {
			ln := r.lines[s][w]
			if !ln.Valid {
				continue
			}
			r.stats.Evictions++
			if ln.Dirty {
				dirty = append(dirty, ln)
				r.stats.Writebacks++
			}
			r.lines[s][w] = Line{}
		}
	}
	r.pol.Bind(Geometry{Sets: r.sets, Ways: r.ways, ReservedWays: n})
	return dirty
}

// TestLevelMatchesReference drives the real Level and refLevel with the
// same seeded operation stream, each hosting its own instance of the same
// policy, and requires identical results at every step: hit/miss, every
// victim line (address, PC, dirty bit), every writeback (dirty victims,
// MarkDirty sinks, lines displaced by a mid-stream Reserve), every
// Invalidate outcome, and the final Stats and line contents. The two
// geometries put a power-of-two and a non-power-of-two set count behind
// the mask and fastmod set mappings.
func TestLevelMatchesReference(t *testing.T) {
	policies := []struct {
		name string
		mk   func() Policy
	}{
		{"LRU", func() Policy { return NewLRU() }},
		{"DRRIP", func() Policy { return NewDRRIP(5) }},
		{"SHiP-PC", func() Policy { return NewSHiPPC() }},
		{"SHiP-Mem", func() Policy { return NewSHiPMem() }},
		{"Hawkeye", func() Policy { return NewHawkeye() }},
	}
	geoms := []struct {
		sets, ways int
	}{
		{64, 8}, // mask mapping
		{48, 8}, // fastmod mapping
	}
	for _, p := range policies {
		for _, g := range geoms {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/sets=%d/seed=%d", p.name, g.sets, seed), func(t *testing.T) {
					diffAgainstReference(t, g.sets, g.ways, p.mk, seed)
				})
			}
		}
	}
}

func diffAgainstReference(t *testing.T, sets, ways int, mk func() Policy, seed int64) {
	size := sets * ways * mem.LineSize
	lvl := NewLevel("real", size, ways, mk())
	ref := newRefLevel(size, ways, mk())
	rng := rand.New(rand.NewSource(seed))

	// A pool of ~3x capacity spread over a wide address range (so the
	// fastmod reciprocal sees large quotients), drawn with a hot subset
	// for reuse.
	pool := make([]uint64, 3*sets*ways)
	for i := range pool {
		pool[i] = (rng.Uint64() >> 16) &^ (mem.LineSize - 1)
	}
	hot := pool[:sets*ways/2]
	addr := func() uint64 {
		if rng.Intn(2) == 0 {
			return hot[rng.Intn(len(hot))]
		}
		return pool[rng.Intn(len(pool))]
	}

	const steps = 30000
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			got, want := lvl.Reserve(2), ref.reserve(2)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: Reserve writebacks %v, reference %v", step, got, want)
			}
			continue
		}
		switch op := rng.Intn(100); {
		case op < 80: // demand access, fill on miss (mirrors Hierarchy)
			acc := mem.Access{Addr: addr() + uint64(rng.Intn(mem.LineSize)), PC: uint16(1 + rng.Intn(10)), Write: rng.Intn(4) == 0}
			hit := lvl.Access(acc)
			if refHit := ref.access(acc); hit != refHit {
				t.Fatalf("step %d: Access(%#x) hit=%v, reference %v", step, acc.Addr, hit, refHit)
			}
			if hit {
				continue
			}
			ev, ok := lvl.Fill(acc)
			refEv, refOK := ref.fill(acc)
			if ev != refEv || ok != refOK {
				t.Fatalf("step %d: Fill(%#x) evicted %+v (%v), reference %+v (%v)", step, acc.Addr, ev, ok, refEv, refOK)
			}
		case op < 90: // writeback sink from an upper level
			la := addr()
			if got, want := lvl.MarkDirty(la), ref.markDirty(la); got != want {
				t.Fatalf("step %d: MarkDirty(%#x) = %v, reference %v", step, la, got, want)
			}
		default:
			la := addr()
			d, p := lvl.Invalidate(la)
			if rd, rp := ref.invalidate(la); d != rd || p != rp {
				t.Fatalf("step %d: Invalidate(%#x) = (%v,%v), reference (%v,%v)", step, la, d, p, rd, rp)
			}
		}
	}
	if lvl.Stats != ref.stats {
		t.Fatalf("final Stats %+v, reference %+v", lvl.Stats, ref.stats)
	}
	for s := 0; s < sets; s++ {
		if got, want := fmt.Sprint(lvl.set(s)), fmt.Sprint(ref.lines[s]); got != want {
			t.Fatalf("set %d holds %s, reference %s", s, got, want)
		}
	}
	if ref.stats.Evictions == 0 || ref.stats.Writebacks == 0 {
		t.Fatalf("stream exercised too little: %+v", ref.stats)
	}
}
