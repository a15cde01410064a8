package trace

import (
	"popt/internal/cache"
	"popt/internal/core"
	"popt/internal/graph"
	"popt/internal/mem"
)

// epochResetter is implemented by P-OPT, whose streaming engine re-fetches
// the first column when a traversal restarts.
type epochResetter interface{ ResetEpoch() }

// tileSetter is implemented by tile-switching policies (core.TilePolicy).
type tileSetter interface{ SetTile(int) }

// Sim is the live-simulation sink: it threads the event stream into a
// cache hierarchy, forwards outer-loop progress to vertex-indexed policies
// (the update_index instruction), and owns the run's instruction counter —
// the MPKI denominator lives here, not in the hierarchy, so a replayed
// stream is charged exactly like a live one. A Sim with a nil hierarchy
// forwards hook events but simulates (and charges) nothing.
type Sim struct {
	H *cache.Hierarchy
	// Hook receives update_index events (P-OPT / T-OPT); nil otherwise.
	Hook core.VertexIndexed
	// Filter, when set, may absorb an access before it reaches the
	// hierarchy (returns true if absorbed). The PHI model uses this to
	// coalesce commutative updates in-cache. Absorbed accesses still
	// charge their instruction, exactly as a real coalesced store retires.
	Filter func(acc mem.Access) bool
	// Instructions counts retired instructions: one per Access event plus
	// every Tick. It is the denominator of MPKI.
	Instructions uint64
}

// NewSim builds a live sink over h. hook may be nil.
func NewSim(h *cache.Hierarchy, hook core.VertexIndexed) *Sim {
	return &Sim{H: h, Hook: hook}
}

// Access implements Sink: charge one instruction and run the reference
// through the hierarchy (unless a filter absorbs it).
//
//popt:hot
func (s *Sim) Access(acc mem.Access) {
	if s.H == nil {
		return
	}
	s.Instructions++
	if s.Filter != nil && s.Filter(acc) {
		return
	}
	s.H.Access(acc)
}

// SetVertex implements Sink: forward outer-loop progress to the hook.
//
//popt:hot
func (s *Sim) SetVertex(v graph.V) {
	if s.Hook != nil {
		s.Hook.UpdateIndex(v)
	}
}

// StartIteration implements Sink: epoch-tracking policies reset; others
// see the traversal restart as progress to vertex 0.
func (s *Sim) StartIteration() {
	if er, ok := s.Hook.(epochResetter); ok {
		er.ResetEpoch()
	} else {
		s.SetVertex(0)
	}
}

// SetTile implements Sink: forward tile switches to tile-aware policies.
func (s *Sim) SetTile(t int) {
	if ts, ok := s.Hook.(tileSetter); ok {
		ts.SetTile(t)
	}
}

// Tick implements Sink: account n non-memory instructions.
//
//popt:hot
func (s *Sim) Tick(n uint64) {
	if s.H != nil {
		s.Instructions += n
	}
}

// MPKI returns LLC misses per kilo-instruction, the paper's primary
// locality metric (Fig. 2, 4).
func (s *Sim) MPKI() float64 {
	if s.H == nil || s.Instructions == 0 {
		return 0
	}
	return float64(s.H.LLC.Stats.Misses) / (float64(s.Instructions) / 1000)
}
