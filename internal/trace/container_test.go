package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"popt/internal/cache"
	"popt/internal/graph"
	"popt/internal/mem"
)

// testMeta is the identifying metadata the container tests record.
func testMeta() Meta {
	return Meta{Workload: "PR-uniform", Schedule: "pull", Scale: "tiny", Seed: 42}
}

// encodeRandomLLCStream builds a pseudo-random LLC-visible stream
// exercising every opcode, inline and escaped PCs, and full-range
// addresses (delta wraparound).
func encodeRandomLLCStream(seed int64, n int) *LLCTrace {
	rng := rand.New(rand.NewSource(seed))
	enc := NewLLCEncoder()
	feedRandomLLCEvents(rng, enc, n)
	l1 := cache.Stats{Accesses: 1000, Hits: 900, Misses: 100, Evictions: 40, Writebacks: 20}
	l2 := cache.Stats{Accesses: 100, Hits: 50, Misses: 50, Evictions: 10, Writebacks: 5}
	return enc.Trace(123456, l1, l2)
}

// feedRandomLLCEvents drives the same pseudo-random event mix into any
// LLC encoder (in-memory or chunked).
func feedRandomLLCEvents(rng *rand.Rand, enc *LLCEncoder, n int) {
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0:
			enc.SetVertex(graph.V(rng.Uint32()))
		case 1:
			enc.StartIteration()
		case 2:
			enc.SetTile(rng.Intn(64))
		case 3:
			enc.LLCWriteback(rng.Uint64())
		default:
			enc.LLCAccess(mem.Access{
				Addr:  rng.Uint64(),
				PC:    uint16(rng.Intn(1 << 12)),
				Write: rng.Intn(2) == 0,
			})
		}
	}
}

// llcCounters distills the replay-visible state of a sim for equivalence
// checks.
type llcCounters struct {
	instr  uint64
	l1, l2 cache.Stats
	llc    cache.Stats
	dramR  uint64
	dramW  uint64
}

func countersOf(sim *Sim) llcCounters {
	return llcCounters{
		instr: sim.Instructions,
		l1:    sim.H.L1.Stats, l2: sim.H.L2.Stats, llc: sim.H.LLC.Stats,
		dramR: sim.H.DRAMReads, dramW: sim.H.DRAMWrites,
	}
}

// TestLLCContainerRoundTrip pins the LLC container against LLCTrace.Replay
// counter for counter, across chunk sizes, worker counts, and window
// sizes, hookless and hooked — the equivalence the corpus-backed sweep
// path rests on.
func TestLLCContainerRoundTrip(t *testing.T) {
	tr := encodeRandomLLCStream(5, 3000)
	want := func(hook *countingHook) llcCounters {
		sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
		if hook != nil {
			sim.Hook = hook
		}
		tr.Replay(sim)
		return countersOf(sim)
	}
	ref := want(nil)
	refHook := &countingHook{}
	refHooked := want(refHook)

	for _, chunkBytes := range []int{64, 1024, DefaultChunkBytes} {
		var buf bytes.Buffer
		if err := WriteLLCContainer(tr, &buf, testMeta(), chunkBytes); err != nil {
			t.Fatalf("chunk %d: WriteLLCContainer: %v", chunkBytes, err)
		}
		r, err := OpenContainer(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("chunk %d: OpenContainer: %v", chunkBytes, err)
		}
		instr, l1, l2, stats, ok := r.LLCTotals()
		if !ok || instr != 123456 || stats != tr.Stats() {
			t.Fatalf("chunk %d: LLC totals did not round trip (instr %d stats %+v)", chunkBytes, instr, stats)
		}
		_, _ = l1, l2
		if err := r.Verify(); err != nil {
			t.Fatalf("chunk %d: Verify: %v", chunkBytes, err)
		}
		for _, opt := range []ReplayOptions{
			{Workers: 1, Window: 1},
			{Workers: 2, Window: 2},
			{Workers: 4},
			{},
		} {
			sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
			if err := r.ReplayLLC(sim, opt); err != nil {
				t.Fatalf("chunk %d %+v: ReplayLLC: %v", chunkBytes, opt, err)
			}
			if got := countersOf(sim); got != ref {
				t.Fatalf("chunk %d %+v: container replay %+v != in-memory replay %+v", chunkBytes, opt, got, ref)
			}
		}
		// Hooked replay: marks must fire at their recorded positions.
		hook := &countingHook{}
		sim := NewSim(cache.NewHierarchy(tinyConfig()), hook)
		if err := r.ReplayLLC(sim, ReplayOptions{Workers: 3}); err != nil {
			t.Fatalf("chunk %d hooked: ReplayLLC: %v", chunkBytes, err)
		}
		if got := countersOf(sim); got != refHooked {
			t.Fatalf("chunk %d hooked: container replay %+v != in-memory replay %+v", chunkBytes, got, refHooked)
		}
		if hook.updates != refHook.updates {
			t.Fatalf("chunk %d hooked: %d hook updates, in-memory replay saw %d", chunkBytes, hook.updates, refHook.updates)
		}
	}
}

// countingHook counts update_index deliveries.
type countingHook struct{ updates int }

func (h *countingHook) UpdateIndex(v graph.V) { h.updates++ }

// TestContainerWindowedAccounting pins the out-of-core bound: replaying a
// many-chunk container under a small window must never hold more than
// window x chunk payload bytes resident, far below the total stream size.
func TestContainerWindowedAccounting(t *testing.T) {
	tr := encodeRandomLLCStream(11, 20000)
	var buf bytes.Buffer
	if err := WriteLLCContainer(tr, &buf, testMeta(), 256); err != nil {
		t.Fatalf("WriteLLCContainer: %v", err)
	}
	r, err := OpenContainer(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("OpenContainer: %v", err)
	}
	if r.Chunks() < 16 {
		t.Fatalf("only %d chunks; the accounting test needs a long stream", r.Chunks())
	}
	const window = 3
	sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
	if err := r.ReplayLLC(sim, ReplayOptions{Workers: 2, Window: window}); err != nil {
		t.Fatalf("ReplayLLC: %v", err)
	}
	peak := r.MaxResidentBytes()
	if peak == 0 {
		t.Fatal("accounting recorded no resident bytes")
	}
	if bound := int64(window) * r.MaxChunkBytes(); peak > bound {
		t.Fatalf("peak resident %d bytes exceeds the window bound %d (window %d x max chunk %d)",
			peak, bound, window, r.MaxChunkBytes())
	}
	if total := r.PayloadBytes(); peak*2 > total {
		t.Fatalf("peak resident %d bytes is not out-of-core against the %d-byte stream", peak, total)
	}
}

// TestContainerRejectsCorruption drives the open/verify error paths: a
// container damaged anywhere — truncated, bit-flipped in a chunk, in the
// footer, or in the trailer — must come back as an error naming the
// problem, never a panic or a silent misread.
func TestContainerRejectsCorruption(t *testing.T) {
	tr := encodeRandomLLCStream(7, 1500)
	var buf bytes.Buffer
	if err := WriteLLCContainer(tr, &buf, testMeta(), 128); err != nil {
		t.Fatalf("WriteLLCContainer: %v", err)
	}
	valid := buf.Bytes()
	open := func(data []byte) (*Reader, error) {
		return OpenContainer(bytes.NewReader(data), int64(len(data)))
	}
	mutate := func(at int) []byte {
		m := append([]byte{}, valid...)
		m[at] ^= 0xff
		return m
	}

	if _, err := open(nil); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("empty container: %v, want truncated error", err)
	}
	if _, err := open(valid[:containerHeaderLen]); err == nil {
		t.Error("header-only container was accepted")
	}
	if _, err := open(valid[:len(valid)-3]); err == nil {
		t.Error("container with a truncated trailer was accepted")
	}
	if _, err := open(mutate(1)); err == nil || !strings.Contains(err.Error(), "not a container") {
		t.Errorf("bad magic: %v, want not-a-container error", err)
	}
	{
		m := append([]byte{}, valid...)
		m[2]++ // container version bump
		if _, err := open(m); err == nil || !strings.Contains(err.Error(), "format version") {
			t.Errorf("future container version: %v, want format-version error", err)
		}
	}
	{
		m := append([]byte{}, valid...)
		m[4]++ // inner stream version bump
		if _, err := open(m); err == nil || !strings.Contains(err.Error(), "inner stream version") {
			t.Errorf("future inner version: %v, want inner-version error", err)
		}
	}
	if _, err := open(mutate(len(valid) - 1)); err == nil {
		t.Error("container with a corrupt trailer kind was accepted")
	}
	{
		// The retired full pre-L1 stream kind: header and trailer agree,
		// so only the kind check stands between these bytes and a replay.
		m := append([]byte{}, valid...)
		m[3], m[len(m)-1] = 't', 't'
		if _, err := OpenContainerBytes(m); err == nil || !strings.Contains(err.Error(), "container kind") {
			t.Errorf("retired kind 't': %v, want container-kind error", err)
		}
	}
	if _, err := open(mutate(len(valid) - containerTrailerLen)); err == nil {
		t.Error("container with a corrupt footer offset was accepted")
	}

	// Chunk payload corruption is caught at verify/replay time, not open
	// (the footer frames still check out).
	r, err := open(valid)
	if err != nil {
		t.Fatalf("OpenContainer on the valid container: %v", err)
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("Verify on the valid container: %v", err)
	}
	damaged := mutate(containerHeaderLen + 32) // inside the first chunk's payload
	rd, err := open(damaged)
	if err != nil {
		t.Fatalf("OpenContainer with a damaged chunk body: %v (damage is pre-footer, open must succeed)", err)
	}
	if err := rd.Verify(); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("Verify on a damaged chunk: %v, want CRC error", err)
	}
	sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
	if err := rd.ReplayLLC(sim, ReplayOptions{Workers: 2}); err == nil {
		t.Error("ReplayLLC replayed a chunk whose CRC does not match")
	}
}

// TestContainerRechunk pins Rechunk: rewriting under a different chunk
// target preserves the event sequence, the stream totals, and the
// metadata, and the result verifies clean.
func TestContainerRechunk(t *testing.T) {
	tr := encodeRandomLLCStream(9, 2500)
	var small bytes.Buffer
	if err := WriteLLCContainer(tr, &small, testMeta(), 96); err != nil {
		t.Fatalf("WriteLLCContainer: %v", err)
	}
	rs, err := OpenContainer(bytes.NewReader(small.Bytes()), int64(small.Len()))
	if err != nil {
		t.Fatalf("OpenContainer(small): %v", err)
	}
	var big bytes.Buffer
	if err := rs.Rechunk(&big, 4096); err != nil {
		t.Fatalf("Rechunk: %v", err)
	}
	rb, err := OpenContainer(bytes.NewReader(big.Bytes()), int64(big.Len()))
	if err != nil {
		t.Fatalf("OpenContainer(rechunked): %v", err)
	}
	if rb.Chunks() >= rs.Chunks() {
		t.Fatalf("rechunk to a larger target kept %d chunks (source had %d)", rb.Chunks(), rs.Chunks())
	}
	if rb.Meta() != rs.Meta() || rb.Events() != rs.Events() {
		t.Fatalf("rechunk changed identity: meta %+v events %d, want %+v / %d", rb.Meta(), rb.Events(), rs.Meta(), rs.Events())
	}
	if err := rb.Verify(); err != nil {
		t.Fatalf("Verify(rechunked): %v", err)
	}
	a := NewSim(cache.NewHierarchy(tinyConfig()), nil)
	b := NewSim(cache.NewHierarchy(tinyConfig()), nil)
	if err := rs.ReplayLLC(a, ReplayOptions{Workers: 1}); err != nil {
		t.Fatalf("ReplayLLC(small): %v", err)
	}
	if err := rb.ReplayLLC(b, ReplayOptions{}); err != nil {
		t.Fatalf("ReplayLLC(rechunked): %v", err)
	}
	if countersOf(a) != countersOf(b) {
		t.Fatal("rechunked container replays differently from its source")
	}
}

// TestChunkedEncoderRequiresFinish pins the finalize contract both ways:
// Trace on a chunked encoder and Finish on an in-memory one are
// programming errors, and a container sealed before its encoder is an
// error, not a torn file.
func TestChunkedEncoderRequiresFinish(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewContainerWriter(&buf, KindLLC, testMeta())
	if err != nil {
		t.Fatalf("NewContainerWriter: %v", err)
	}
	if err := cw.Finish(); err == nil || !strings.Contains(err.Error(), "before its encoder") {
		t.Fatalf("Finish before the encoder's Finish: %v, want finished-before-encoder error", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Trace on a chunked encoder did not panic")
			}
		}()
		var buf2 bytes.Buffer
		cw2, _ := NewContainerWriter(&buf2, KindLLC, testMeta())
		NewChunkedLLCEncoder(cw2).Trace(0, cache.Stats{}, cache.Stats{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Finish on an in-memory encoder did not panic")
			}
		}()
		_ = NewLLCEncoder().Finish(0, cache.Stats{}, cache.Stats{})
	}()
	for _, kind := range []byte{'x', 't'} {
		if _, err := NewContainerWriter(&buf, kind, testMeta()); err == nil {
			t.Errorf("NewContainerWriter accepted kind %q", kind)
		}
	}
}
