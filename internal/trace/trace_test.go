package trace

import (
	"math/rand"
	"reflect"
	"testing"

	"popt/internal/cache"
	"popt/internal/graph"
	"popt/internal/mem"
)

// ev is one recorded event for equivalence checking.
type ev struct {
	op   string
	acc  mem.Access
	v    graph.V
	tile int
	n    uint64
}

// recordSink captures the full event stream as a slice.
type recordSink struct{ evs []ev }

func (r *recordSink) Access(acc mem.Access) { r.evs = append(r.evs, ev{op: "access", acc: acc}) }
func (r *recordSink) SetVertex(v graph.V)   { r.evs = append(r.evs, ev{op: "vertex", v: v}) }
func (r *recordSink) StartIteration()       { r.evs = append(r.evs, ev{op: "iter"}) }
func (r *recordSink) SetTile(t int)         { r.evs = append(r.evs, ev{op: "tile", tile: t}) }
func (r *recordSink) Tick(n uint64)         { r.evs = append(r.evs, ev{op: "tick", n: n}) }

// TestEncoderRoundTrip drives pseudo-random LLC-visible event streams
// through the encoder and checks the decoded probe and hook-mark
// sequences are exactly the ones fed in. Addresses span the full uint64
// range (delta encoding must survive wraparound) and PCs exceed the slot
// count (collisions must only cost size, never correctness).
func TestEncoderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		enc := NewLLCEncoder()
		var probes []cache.Probe
		var marks []llcMark
		n := 1 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			switch rng.Intn(10) {
			case 0:
				v := graph.V(rng.Uint32())
				enc.SetVertex(v)
				marks = append(marks, llcMark{pos: len(probes), kind: lopSetVertex, val: int64(v)})
			case 1:
				enc.StartIteration()
				marks = append(marks, llcMark{pos: len(probes), kind: lopStartIteration})
			case 2:
				tl := rng.Intn(64)
				enc.SetTile(tl)
				marks = append(marks, llcMark{pos: len(probes), kind: lopSetTile, val: int64(tl)})
			case 3:
				line := rng.Uint64()
				enc.LLCWriteback(line)
				probes = append(probes, cache.Probe{Addr: line, Kind: cache.ProbeWB})
			default:
				acc := mem.Access{Addr: rng.Uint64(), PC: uint16(rng.Intn(1 << 16)), Write: rng.Intn(2) == 0}
				enc.LLCAccess(acc)
				kind := cache.ProbeRead
				if acc.Write {
					kind = cache.ProbeWrite
				}
				probes = append(probes, cache.Probe{Addr: acc.Addr, PC: acc.PC, Kind: kind})
			}
		}
		tr := enc.Trace(0, cache.Stats{}, cache.Stats{})
		gotProbes, gotMarks := decodeLLCChunkEvents(tr.Bytes()[llcHeaderLen:], nil)
		if !reflect.DeepEqual(gotProbes, probes) || !reflect.DeepEqual(gotMarks, marks) {
			t.Fatalf("trial %d: round trip diverged (%d probes/%d marks in, %d/%d out)",
				trial, len(probes), len(marks), len(gotProbes), len(gotMarks))
		}
	}
}

// TestEncoderDeltaLocality pins the compression property the format exists
// for: a line-strided same-PC walk must encode in ~3 bytes/event.
func TestEncoderDeltaLocality(t *testing.T) {
	enc := NewLLCEncoder()
	for i := 0; i < 10000; i++ {
		enc.LLCAccess(mem.Access{Addr: 1<<30 + uint64(i)*mem.LineSize, PC: 3})
	}
	tr := enc.Trace(0, cache.Stats{}, cache.Stats{})
	if bpe := tr.BytesPerEvent(); bpe > 3.5 {
		t.Errorf("sequential walk encodes at %.2f bytes/event, want <= 3.5", bpe)
	}
	if tr.Stats().Accesses != 10000 {
		t.Errorf("accesses = %d", tr.Stats().Accesses)
	}
}

// TestTraceReplayIsRepeatable checks an LLCTrace carries no mutable decode
// state: two replays into fresh sims must land on identical counters and
// deliver the same hook events.
func TestTraceReplayIsRepeatable(t *testing.T) {
	tr := encodeRandomLLCStream(3, 500)
	replay := func() (llcCounters, int) {
		hook := &countingHook{}
		sim := NewSim(cache.NewHierarchy(tinyConfig()), hook)
		tr.Replay(sim)
		return countersOf(sim), hook.updates
	}
	a, ahook := replay()
	b, bhook := replay()
	if a != b || ahook != bhook {
		t.Fatalf("two replays of one trace diverged: %+v (%d hooks) vs %+v (%d hooks)", a, ahook, b, bhook)
	}
	// A hook without epochs sees each StartIteration as progress to
	// vertex 0 (see Sim.StartIteration).
	st := tr.Stats()
	if want := int(st.VertexUpdates + st.Iterations); ahook != want {
		t.Fatalf("replay delivered %d vertex updates, trace holds %d", ahook, want)
	}
}

// TestStatsEvents checks the event total matches a hand count, and that
// the Sink-side Access/Tick events the encoder drops are not counted.
func TestStatsEvents(t *testing.T) {
	enc := NewLLCEncoder()
	enc.LLCAccess(mem.Access{Addr: 1, PC: 1, Write: true})
	enc.LLCWriteback(64)
	enc.SetVertex(1)
	enc.StartIteration()
	enc.SetTile(2)
	enc.Access(mem.Access{Addr: 2, PC: 1})
	enc.Tick(5)
	st := enc.Trace(0, cache.Stats{}, cache.Stats{}).Stats()
	if got := st.Events(); got != 5 {
		t.Errorf("Events() = %d, want 5", got)
	}
	if st.Writes != 1 || st.Writebacks != 1 {
		t.Errorf("Writes = %d, Writebacks = %d, want 1 and 1", st.Writes, st.Writebacks)
	}
}

// TestSimMPKI relocates the old Hierarchy MPKI unit test: the sink owns
// the instruction counter now.
func TestSimMPKI(t *testing.T) {
	h := cache.NewHierarchy(cache.Scaled(func() cache.Policy { return cache.NewLRU() }))
	s := NewSim(h, nil)
	s.Tick(1000)
	for i := 0; i < 10; i++ {
		h.Access(mem.Access{Addr: uint64(i) * 4096 * mem.LineSize})
	}
	if got := s.MPKI(); got != 10 {
		t.Errorf("MPKI = %v, want 10", got)
	}
	if empty := (&Sim{}); empty.MPKI() != 0 {
		t.Error("hierarchy-less Sim must report 0 MPKI")
	}
}

// TestSimChargesAbsorbedAccesses pins the filter contract: an absorbed
// access retires its instruction without reaching the hierarchy.
func TestSimChargesAbsorbedAccesses(t *testing.T) {
	h := cache.NewHierarchy(cache.Scaled(func() cache.Policy { return cache.NewLRU() }))
	s := NewSim(h, nil)
	s.Filter = func(acc mem.Access) bool { return acc.Write }
	s.Access(mem.Access{Addr: 64, Write: true})
	s.Access(mem.Access{Addr: 64})
	if s.Instructions != 2 {
		t.Errorf("Instructions = %d, want 2", s.Instructions)
	}
	if h.L1.Stats.Accesses != 1 {
		t.Errorf("L1 accesses = %d, want 1", h.L1.Stats.Accesses)
	}
}

// TestTeeDeliversInOrder checks fan-out order and completeness.
func TestTeeDeliversInOrder(t *testing.T) {
	a, b := &recordSink{}, &recordSink{}
	tee := NewTee(a, b)
	tee.Access(mem.Access{Addr: 10, PC: 2})
	tee.SetVertex(3)
	tee.Tick(4)
	if !reflect.DeepEqual(a.evs, b.evs) || len(a.evs) != 3 {
		t.Fatalf("tee fan-out diverged: %v vs %v", a.evs, b.evs)
	}
}
