package trace

import (
	"bytes"
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

// logPolicy is an LRU LLC policy that logs every demand access it sees
// (each one either hits or fills) into a shared event log.
type logPolicy struct {
	cache.Policy
	log *[]ev
}

func (p logPolicy) OnHit(set, way int, acc mem.Access) {
	*p.log = append(*p.log, ev{op: "access", acc: acc})
	p.Policy.OnHit(set, way, acc)
}

func (p logPolicy) OnFill(set, way int, acc mem.Access) {
	*p.log = append(*p.log, ev{op: "access", acc: acc})
	p.Policy.OnFill(set, way, acc)
}

// logHook logs the hook events a replay delivers into the same log.
type logHook struct{ log *[]ev }

func (h logHook) UpdateIndex(v graph.V) { *h.log = append(*h.log, ev{op: "vertex", v: v}) }
func (h logHook) ResetEpoch()           { *h.log = append(*h.log, ev{op: "iter"}) }
func (h logHook) SetTile(t int)         { *h.log = append(*h.log, ev{op: "tile", tile: t}) }

// TestEncoderRoundTrip drives pseudo-random LLC-visible event streams
// through the encoder and checks both decoders return exactly the events
// fed in. Addresses span the full uint64 range (delta encoding must
// survive wraparound) and PCs exceed the slot count (collisions must only
// cost size, never correctness). The replay decoder runs over 64-byte
// chunks, so delta resets and the carried probe batch sit between almost
// every pair of events; its demand accesses and hook events, logged by
// the LLC policy and the hook in delivery order, must match the input.
// The re-encoder must turn those chunks back into exactly the bytes a
// direct one-chunk recording writes, which pins every opcode, writebacks
// included.
func TestEncoderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		var want []ev
		var events []func(enc *LLCEncoder)
		n := 1 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			switch rng.Intn(10) {
			case 0:
				v := graph.V(rng.Uint32())
				events = append(events, func(enc *LLCEncoder) { enc.SetVertex(v) })
				want = append(want, ev{op: "vertex", v: v})
			case 1:
				events = append(events, func(enc *LLCEncoder) { enc.StartIteration() })
				want = append(want, ev{op: "iter"})
			case 2:
				tl := rng.Intn(64)
				events = append(events, func(enc *LLCEncoder) { enc.SetTile(tl) })
				want = append(want, ev{op: "tile", tile: tl})
			case 3:
				line := rng.Uint64()
				events = append(events, func(enc *LLCEncoder) { enc.LLCWriteback(line) })
			default:
				acc := mem.Access{Addr: rng.Uint64(), PC: uint16(rng.Intn(1 << 16)), Write: rng.Intn(2) == 0}
				events = append(events, func(enc *LLCEncoder) { enc.LLCAccess(acc) })
				want = append(want, ev{op: "access", acc: acc})
			}
		}
		feed := func(enc *LLCEncoder) {
			for _, e := range events {
				e(enc)
			}
		}
		fine := openBytes(t, encodeLLCContainer(t, 64, 0, cache.Stats{}, cache.Stats{}, feed))
		whole := encodeLLCContainer(t, 0, 0, cache.Stats{}, cache.Stats{}, feed)

		var got []ev
		cfg := tinyConfig()
		cfg.LLCPolicy = func() cache.Policy { return logPolicy{Policy: cache.NewLRU(), log: &got} }
		if err := fine.ReplayLLC(NewSim(cache.NewHierarchy(cfg), logHook{log: &got})); err != nil {
			t.Fatalf("trial %d: ReplayLLC: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: replay delivered %d accesses+hooks, %d fed in, or they differ", trial, len(got), len(want))
		}
		var re bytes.Buffer
		if err := fine.Rechunk(&re, DefaultChunkBytes); err != nil {
			t.Fatalf("trial %d: Rechunk: %v", trial, err)
		}
		if !bytes.Equal(re.Bytes(), whole) {
			t.Fatalf("trial %d: re-encoded %d-chunk stream differs from the direct recording", trial, fine.Chunks())
		}
	}
}

// TestEncoderDeltaLocality pins the compression property the format exists
// for: a line-strided same-PC walk must encode in ~3 bytes/event.
func TestEncoderDeltaLocality(t *testing.T) {
	data := encodeLLCContainer(t, 0, 0, cache.Stats{}, cache.Stats{}, func(enc *LLCEncoder) {
		for i := 0; i < 10000; i++ {
			enc.LLCAccess(mem.Access{Addr: 1<<30 + uint64(i)*mem.LineSize, PC: 3})
		}
	})
	tr := &LLCTrace{r: openBytes(t, data)}
	if bpe := tr.BytesPerEvent(); bpe > 3.5 {
		t.Errorf("sequential walk encodes at %.2f bytes/event, want <= 3.5", bpe)
	}
	if tr.Stats().Accesses != 10000 {
		t.Errorf("accesses = %d", tr.Stats().Accesses)
	}
}

// TestTraceReplayIsRepeatable checks a Reader carries no mutable decode
// state: two replays into fresh sims must land on identical counters and
// deliver the same hook events.
func TestTraceReplayIsRepeatable(t *testing.T) {
	r := openBytes(t, randomLLCContainer(t, 3, 500, 256))
	replay := func() (llcCounters, int) {
		hook := &countingHook{}
		return replayCounters(t, r, hook), hook.updates
	}
	a, ahook := replay()
	b, bhook := replay()
	if a != b || ahook != bhook {
		t.Fatalf("two replays of one trace diverged: %+v (%d hooks) vs %+v (%d hooks)", a, ahook, b, bhook)
	}
	// A hook without epochs sees each StartIteration as progress to
	// vertex 0 (see Sim.StartIteration).
	_, _, _, st, _ := r.LLCTotals()
	if want := int(st.VertexUpdates + st.Iterations); ahook != want {
		t.Fatalf("replay delivered %d vertex updates, trace holds %d", ahook, want)
	}
}

// TestStatsEvents checks the event total matches a hand count, and that
// the Sink-side Access/Tick events the encoder drops are not counted. The
// recording is RecordLLCTrace's, whose Reader skips the one-time scan as
// trusted; it must verify clean all the same.
func TestStatsEvents(t *testing.T) {
	tr, err := RecordLLCTrace(0, func(cw *ContainerWriter) error {
		enc := NewChunkedLLCEncoder(cw)
		enc.LLCAccess(mem.Access{Addr: 1, PC: 1, Write: true})
		enc.LLCWriteback(64)
		enc.SetVertex(1)
		enc.StartIteration()
		enc.SetTile(2)
		enc.Access(mem.Access{Addr: 2, PC: 1})
		enc.Tick(5)
		return enc.Finish(0, cache.Stats{}, cache.Stats{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Reader().Verify(); err != nil {
		t.Fatalf("Verify on a trusted recording: %v", err)
	}
	st := tr.Stats()
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
