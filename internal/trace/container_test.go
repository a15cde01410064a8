package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"popt/internal/cache"
	"popt/internal/core"
	"popt/internal/graph"
	"popt/internal/mem"
)

// testMeta is the identifying metadata the container tests record.
func testMeta() Meta {
	return Meta{Workload: "PR-uniform", Schedule: "pull", Scale: "tiny", Seed: 42}
}

// encodeLLCContainer records the events feed drives into an in-memory
// container with the given chunk target (<= 0 keeps DefaultChunkBytes)
// and the given setup-invariant totals.
func encodeLLCContainer(tb testing.TB, chunkBytes int, instructions uint64, l1, l2 cache.Stats, feed func(enc *LLCEncoder)) []byte {
	tb.Helper()
	var buf bytes.Buffer
	cw, err := NewContainerWriter(&buf, KindLLC, testMeta())
	if err != nil {
		tb.Fatal(err)
	}
	cw.SetChunkBytes(chunkBytes)
	enc := NewChunkedLLCEncoder(cw)
	feed(enc)
	if err := enc.Finish(instructions, l1, l2); err != nil {
		tb.Fatal(err)
	}
	if err := cw.Finish(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// Totals the random-stream containers record.
var (
	randL1 = cache.Stats{Accesses: 1000, Hits: 900, Misses: 100, Evictions: 40, Writebacks: 20}
	randL2 = cache.Stats{Accesses: 100, Hits: 50, Misses: 50, Evictions: 10, Writebacks: 5}
)

// randomLLCContainer builds a container over a pseudo-random LLC-visible
// stream exercising every opcode, inline and escaped PCs, and full-range
// addresses (delta wraparound). The same seed yields the same events at
// every chunk target.
func randomLLCContainer(tb testing.TB, seed int64, n, chunkBytes int) []byte {
	return encodeLLCContainer(tb, chunkBytes, 123456, randL1, randL2, func(enc *LLCEncoder) {
		feedRandomLLCEvents(rand.New(rand.NewSource(seed)), enc, n)
	})
}

// rawLLCContainer wraps payload, unvalidated, as the single chunk of an
// otherwise well-formed container — how corrupt event bytes reach the
// reader's structural scan. Well-formed event bytes get their scanned
// event count and statistics in the index and stats frame, so the
// container verifies clean; for malformed ones the scan error is the
// first thing Verify reports.
func rawLLCContainer(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	cw, err := NewContainerWriter(&buf, KindLLC, testMeta())
	if err != nil {
		tb.Fatal(err)
	}
	events, stats := uint64(1), LLCStats{}
	if s, err := scanLLCFrom(payload); err == nil {
		events, stats = s.Events(), s
	}
	cw.writeChunk(events, 0, payload)
	cw.setStats(encodeLLCStats(stats, 0, cache.Stats{}, cache.Stats{}, cw.streamCRC))
	if err := cw.Finish(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// openBytes opens an in-memory container, failing the test on error.
func openBytes(tb testing.TB, data []byte) *Reader {
	tb.Helper()
	r, err := OpenContainerBytes(data)
	if err != nil {
		tb.Fatalf("OpenContainerBytes: %v", err)
	}
	return r
}

// replayCounters replays r into a fresh tiny hierarchy (hook may be nil)
// and returns its counters.
func replayCounters(tb testing.TB, r *Reader, hook core.VertexIndexed) llcCounters {
	tb.Helper()
	sim := NewSim(cache.NewHierarchy(tinyConfig()), hook)
	if err := r.ReplayLLC(sim); err != nil {
		tb.Fatalf("ReplayLLC: %v", err)
	}
	return countersOf(sim)
}

// feedRandomLLCEvents drives a pseudo-random event mix into enc.
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

// TestLLCContainerRoundTrip pins the container replay across chunk
// targets, hookless and hooked: a stream cut into many chunks (delta
// state reset at every boundary, the probe batch carried across them)
// must replay counter for counter like the same stream in one chunk, and
// the setup-invariant totals must come back out of the stats frame.
func TestLLCContainerRoundTrip(t *testing.T) {
	one := openBytes(t, randomLLCContainer(t, 5, 3000, 0))
	if one.Chunks() != 1 {
		t.Fatalf("reference container has %d chunks, want 1", one.Chunks())
	}
	ref := replayCounters(t, one, nil)
	refHook := &countingHook{}
	refHooked := replayCounters(t, one, refHook)
	_, _, _, refStats, _ := one.LLCTotals()

	for _, chunkBytes := range []int{64, 1024, DefaultChunkBytes} {
		r := openBytes(t, randomLLCContainer(t, 5, 3000, chunkBytes))
		instr, l1, l2, stats, ok := r.LLCTotals()
		if !ok || instr != 123456 || l1 != randL1 || l2 != randL2 || stats != refStats {
			t.Fatalf("chunk %d: LLC totals did not round trip (instr %d l1 %+v l2 %+v stats %+v)", chunkBytes, instr, l1, l2, stats)
		}
		if err := r.Verify(); err != nil {
			t.Fatalf("chunk %d: Verify: %v", chunkBytes, err)
		}
		// Twice: the first replay runs the one-time scan, the second skips it.
		for pass := 0; pass < 2; pass++ {
			if got := replayCounters(t, r, nil); got != ref {
				t.Fatalf("chunk %d pass %d: replay %+v != one-chunk replay %+v", chunkBytes, pass, got, ref)
			}
		}
		// Hooked replay: hook events must fire at their recorded positions.
		hook := &countingHook{}
		if got := replayCounters(t, r, hook); got != refHooked {
			t.Fatalf("chunk %d hooked: replay %+v != one-chunk replay %+v", chunkBytes, got, refHooked)
		}
		if hook.updates != refHook.updates {
			t.Fatalf("chunk %d hooked: %d hook updates, one-chunk replay saw %d", chunkBytes, hook.updates, refHook.updates)
		}
	}
}

// countingHook counts update_index deliveries.
type countingHook struct{ updates int }

func (h *countingHook) UpdateIndex(v graph.V) { h.updates++ }

// TestContainerWindowedAccounting pins the out-of-core bound: replaying a
// many-chunk container holds one chunk resident at a time, far below the
// total stream size.
func TestContainerWindowedAccounting(t *testing.T) {
	r := openBytes(t, randomLLCContainer(t, 11, 20000, 256))
	if r.Chunks() < 16 {
		t.Fatalf("only %d chunks; the accounting test needs a long stream", r.Chunks())
	}
	replayCounters(t, r, nil)
	peak := r.MaxResidentBytes()
	if peak == 0 {
		t.Fatal("accounting recorded no resident bytes")
	}
	if peak > r.MaxChunkBytes() {
		t.Fatalf("peak resident %d bytes exceeds one chunk (max chunk %d)", peak, r.MaxChunkBytes())
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
	valid := randomLLCContainer(t, 7, 1500, 128)
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
	if err := rd.ReplayLLC(sim); err == nil {
		t.Error("ReplayLLC replayed a chunk whose CRC does not match")
	}

	// Damage after the one-time scan: the first replay validates and
	// succeeds, then a payload byte flips under the Reader (a corpus file
	// damaged mid-run). The next replay must report the chunk CRC, not
	// decode the bytes or panic.
	live := append([]byte{}, valid...)
	rl := openBytes(t, live)
	replayCounters(t, rl, nil)
	ci := rl.chunks[rl.Chunks()/2]
	live[ci.off+int64(frameHeaderLen(ci))] ^= 0xff // first payload byte of a mid-stream chunk
	sim = NewSim(cache.NewHierarchy(tinyConfig()), nil)
	if err := rl.ReplayLLC(sim); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("replay after mid-run damage: %v, want chunk CRC error", err)
	}
}

// TestContainerRechunk pins Rechunk: rewriting under a different chunk
// target preserves the event sequence, the stream totals, and the
// metadata, and the result verifies clean.
func TestContainerRechunk(t *testing.T) {
	rs := openBytes(t, randomLLCContainer(t, 9, 2500, 96))
	var big bytes.Buffer
	if err := rs.Rechunk(&big, 4096); err != nil {
		t.Fatalf("Rechunk: %v", err)
	}
	rb := openBytes(t, big.Bytes())
	if rb.Chunks() >= rs.Chunks() {
		t.Fatalf("rechunk to a larger target kept %d chunks (source had %d)", rb.Chunks(), rs.Chunks())
	}
	if rb.Meta() != rs.Meta() || rb.Events() != rs.Events() {
		t.Fatalf("rechunk changed identity: meta %+v events %d, want %+v / %d", rb.Meta(), rb.Events(), rs.Meta(), rs.Events())
	}
	if err := rb.Verify(); err != nil {
		t.Fatalf("Verify(rechunked): %v", err)
	}
	// Event-level identity: the rechunked bytes are exactly what encoding
	// the same events at the new target writes.
	if want := randomLLCContainer(t, 9, 2500, 4096); !bytes.Equal(big.Bytes(), want) {
		t.Fatal("rechunked container differs from a direct recording at the new chunk target")
	}
	if replayCounters(t, rs, nil) != replayCounters(t, rb, nil) {
		t.Fatal("rechunked container replays differently from its source")
	}
}

// TestChunkedEncoderRequiresFinish pins the finalize contract: a
// container sealed before its encoder is an error, not a torn file, and
// only the LLC kind can be written.
func TestChunkedEncoderRequiresFinish(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewContainerWriter(&buf, KindLLC, testMeta())
	if err != nil {
		t.Fatalf("NewContainerWriter: %v", err)
	}
	if err := cw.Finish(); err == nil || !strings.Contains(err.Error(), "before its encoder") {
		t.Fatalf("Finish before the encoder's Finish: %v, want finished-before-encoder error", err)
	}
	for _, kind := range []byte{'x', 't'} {
		if _, err := NewContainerWriter(&buf, kind, testMeta()); err == nil {
			t.Errorf("NewContainerWriter accepted kind %q", kind)
		}
	}
}
