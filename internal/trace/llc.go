package trace

import (
	"encoding/binary"
	"math"

	"popt/internal/cache"
	"popt/internal/graph"
	"popt/internal/mem"
)

// This file implements the LLC-visible trace, the form the paper's own
// pipeline records (Section VI: the Pin tool logs the reference stream
// the LLC observes, and each policy is simulated against that one log).
// L1 and L2 run fixed Bit-PLRU and the hierarchy never back-invalidates
// them, so the stream of demand accesses that miss L2 — plus the dirty
// victims those misses push down — is identical under every LLC policy.
// Recording it once per workload lets each additional policy setup
// replay against only the LLC: the upper levels are neither re-simulated
// nor rebuilt, which is where the sweep engine's wall-clock win comes
// from. Hook events (SetVertex, StartIteration, SetTile) stay in the
// stream because vertex-indexed policies consume them; instruction
// counts and the L1/L2 statistics are totals, invariant across setups,
// and ride in the trace header instead of the event stream.

// LLC-stream opcodes, in the low nibble of the first byte. Access events
// carry the PC in the high nibble (hi = PC+1, pcEscape = explicit uvarint
// PC; see varint.go).
const (
	lopAccessR   byte = iota + 1 // [hi: PC+1 | escape] zigzag delta address
	lopAccessW                   // [hi: PC+1 | escape] zigzag delta address
	lopWB                        // zigzag delta line address
	lopSetVertex                 // zigzag delta vertex
	lopStartIteration
	lopSetTile // uvarint tile
)

// LLCStats describes a recorded LLC-visible stream.
type LLCStats struct {
	// Accesses counts demand references that reached the LLC; Writes of
	// them are stores.
	Accesses uint64
	Writes   uint64
	// Writebacks counts upper-level dirty victims offered to the LLC.
	Writebacks uint64
	// VertexUpdates, Iterations and TileSwitches count hook events.
	VertexUpdates uint64
	Iterations    uint64
	TileSwitches  uint64
}

// Events returns the total encoded event count.
func (s LLCStats) Events() uint64 {
	return s.Accesses + s.Writebacks + s.VertexUpdates + s.Iterations + s.TileSwitches
}

// LLCEncoder records the LLC-visible stream of one live run. It plugs
// into two observation points at once: as the hierarchy's Tap it sees
// LLC accesses and writebacks, and as a Sink (teed behind the live Sim)
// it sees the hook events that must stay ordered relative to them. The
// Sink-side Access/Tick events carry no LLC-visible information and are
// dropped — their one consumer, the instruction counter, is a total
// the finished trace copies from the recording Sim.
type LLCEncoder struct {
	Nop
	buf    []byte
	last   [pcSlots]uint64 // previous access address per PC slot
	lastWB uint64          // previous writeback line address
	lastV  graph.V
	stats  LLCStats

	// Chunked mode (NewChunkedLLCEncoder): buf holds one headerless chunk
	// payload that flushes to cw at the first event boundary past the
	// byte target, with delta state reset so every chunk decodes
	// independently. Nil cw (the in-memory form) skips all of it.
	cw              *ContainerWriter
	chunkBytes      int
	chunkStartEvnts uint64 // stats.Events() snapshot at chunk start
	chunkFirstPC    uint64 // first access PC in the chunk + 1; 0 = none
}

// NewLLCEncoder returns an empty LLC-stream encoder. The fixed-width
// header (magic, version, and the setup-invariant totals — see
// HeaderFields in format.go) is reserved up front and filled at finalize
// time by Trace, so the event buffer never needs a copy.
func NewLLCEncoder() *LLCEncoder {
	// chunkBytes is a sentinel no buffer reaches, so the hot per-event
	// chunk check is one compare with no chunked/in-memory branch.
	e := &LLCEncoder{buf: make([]byte, llcHeaderLen, 64<<10), chunkBytes: math.MaxInt}
	e.buf[0], e.buf[1], e.buf[2] = magic0, magicLLC1, LLCFormatVersion
	return e
}

// NewChunkedLLCEncoder returns an LLC-stream encoder that streams chunk
// frames through cw: resident encode memory stays O(one chunk) no matter
// how long the recording runs, which is what lets paper-scale streams be
// recorded straight to the corpus. Finalize with Finish (Trace is invalid
// in this mode); the owner then calls cw.Finish to seal the container.
func NewChunkedLLCEncoder(cw *ContainerWriter) *LLCEncoder {
	return &LLCEncoder{
		buf:        make([]byte, 0, cw.chunkBytes+16),
		cw:         cw,
		chunkBytes: cw.chunkBytes,
	}
}

// maybeChunk closes the current chunk once the payload passes the byte
// target; called at the end of every encoded event. The call pushes
// LLCWriteback and SetVertex past the inlining budget, which the hotpath
// baseline accepts deliberately: every hot caller reaches them through an
// interface (Hierarchy.Tap during recording, Sink via Tee), where
// inlining never applied; the only static caller is the cold rechunk
// path.
//
//popt:hot
func (e *LLCEncoder) maybeChunk() {
	// In-memory encoders carry a sentinel threshold, so no nil check of
	// e.cw is needed here — one compare per event.
	if len(e.buf) >= e.chunkBytes {
		e.flushChunk()
	}
}

// flushChunk emits the pending chunk frame and resets the delta state the
// next chunk must not depend on. Out of line: it runs once per ~64K
// events and its frame writes must not burden the per-event encoders.
//
//go:noinline
func (e *LLCEncoder) flushChunk() {
	if len(e.buf) == 0 {
		return
	}
	events := e.stats.Events() - e.chunkStartEvnts
	e.cw.writeChunk(events, e.chunkFirstPC, e.buf)
	e.buf = e.buf[:0]
	e.chunkStartEvnts = e.stats.Events()
	e.chunkFirstPC = 0
	e.last = [pcSlots]uint64{}
	e.lastWB = 0
	e.lastV = 0
}

// Finish flushes the trailing chunk and installs the stream totals —
// including the setup-invariant instruction and L1/L2 counters that the
// in-memory form carries in its header — on the container writer.
func (e *LLCEncoder) Finish(instructions uint64, l1, l2 cache.Stats) error {
	if e.cw == nil {
		panic("trace: LLCEncoder.Finish without a container writer; use Trace")
	}
	e.flushChunk()
	e.cw.setStats(encodeLLCStats(e.stats, instructions, l1, l2, e.cw.streamCRC))
	return e.cw.Err()
}

// LLCAccess implements cache.LLCTap.
//
//popt:hot
//popt:codec llc enc
func (e *LLCEncoder) LLCAccess(acc mem.Access) {
	op := lopAccessR
	if acc.Write {
		op = lopAccessW
		e.stats.Writes++
	}
	e.stats.Accesses++
	if acc.PC <= pcInline {
		e.buf = append(e.buf, op|byte(acc.PC+1)<<4)
	} else {
		e.buf = append(e.buf, op|pcEscape<<4)
		e.buf = appendUvarint(e.buf, uint64(acc.PC))
	}
	slot := acc.PC & pcSlotMask
	e.buf = appendVarint(e.buf, int64(acc.Addr-e.last[slot]))
	e.last[slot] = acc.Addr
	if e.cw != nil && e.chunkFirstPC == 0 {
		e.chunkFirstPC = uint64(acc.PC) + 1
	}
	e.maybeChunk()
}

// LLCWriteback implements cache.LLCTap.
//
//popt:hot
//popt:codec llc enc
func (e *LLCEncoder) LLCWriteback(lineAddr uint64) {
	e.stats.Writebacks++
	e.buf = append(e.buf, lopWB)
	e.buf = appendVarint(e.buf, int64(lineAddr-e.lastWB))
	e.lastWB = lineAddr
	e.maybeChunk()
}

// SetVertex implements Sink.
//
//popt:hot
//popt:codec llc enc
func (e *LLCEncoder) SetVertex(v graph.V) {
	e.stats.VertexUpdates++
	e.buf = append(e.buf, lopSetVertex)
	e.buf = appendVarint(e.buf, int64(v)-int64(e.lastV))
	e.lastV = v
	e.maybeChunk()
}

// StartIteration implements Sink.
//
//popt:codec llc enc
func (e *LLCEncoder) StartIteration() {
	e.stats.Iterations++
	e.buf = append(e.buf, lopStartIteration)
	e.maybeChunk()
}

// SetTile implements Sink.
//
//popt:codec llc enc
func (e *LLCEncoder) SetTile(t int) {
	e.stats.TileSwitches++
	e.buf = append(e.buf, lopSetTile)
	e.buf = appendUvarint(e.buf, uint64(t))
	e.maybeChunk()
}

// Trace finalizes the encoder. instructions is the recording run's
// retired-instruction total and l1, l2 its upper-level statistics; all
// three are invariant across LLC policy setups, so replays install them
// directly. They are also written into the reserved header slots so the
// encoded bytes are self-contained for the on-disk corpus (DecodeLLCTrace
// reads them back). The encoder must not be used after Trace is called.
func (e *LLCEncoder) Trace(instructions uint64, l1, l2 cache.Stats) *LLCTrace {
	if e.cw != nil {
		panic("trace: chunked LLCEncoder has no in-memory form; finalize with Finish")
	}
	putLLCHeader(e.buf, instructions, l1, l2)
	return &LLCTrace{data: e.buf, instructions: instructions, l1: l1, l2: l2, stats: e.stats}
}

// putLLCHeader fills the setup-invariant totals into the reserved header
// slots, in HeaderFields order.
func putLLCHeader(buf []byte, instructions uint64, l1, l2 cache.Stats) {
	at := 3
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[at:at+8], x)
		at += 8
	}
	put(instructions)
	for _, s := range [2]cache.Stats{l1, l2} {
		put(s.Accesses)
		put(s.Hits)
		put(s.Misses)
		put(s.Evictions)
		put(s.Writebacks)
	}
}

// LLCTrace is an immutable encoded LLC-visible stream plus the
// setup-invariant totals of the run that recorded it. It is safe to
// replay from multiple goroutines concurrently.
//
//popt:frozen
type LLCTrace struct {
	data         []byte
	instructions uint64
	l1, l2       cache.Stats
	stats        LLCStats
}

// Size returns the encoded size in bytes.
func (t *LLCTrace) Size() int { return len(t.data) }

// Stats returns the stream's event statistics.
func (t *LLCTrace) Stats() LLCStats { return t.stats }

// BytesPerEvent returns the encoded density.
func (t *LLCTrace) BytesPerEvent() float64 {
	n := t.stats.Events()
	if n == 0 {
		return 0
	}
	return float64(len(t.data)) / float64(n)
}

// Replay drives sim's LLC with the recorded stream and installs the
// setup-invariant totals (instructions, L1/L2 statistics), reproducing a
// live run byte-for-byte on every counter — the replay-equivalence
// golden in internal/bench pins this across the policy zoo. Decoded
// demand accesses and writebacks are collected into a fixed-size probe
// batch and issued through cache.Level.AccessBatch, which preserves
// event order and per-event semantics exactly (see its contract) while
// amortizing the set-mapping branch and statistics traffic; the batch
// mirrors cache.Hierarchy.Access's LLC branches probe for probe. Hook
// events force a flush only when the sim actually has a hook — for a
// hookless sim (the whole baseline policy zoo) they are decode-local
// no-ops and the batch runs long. The stream header is checked once up
// front: a magic or format-version mismatch fails loudly (badLLCHeader)
// instead of misdecoding bytes laid out under another version.
//
//popt:hot
//popt:codec llc dec
func (t *LLCTrace) Replay(sim *Sim) {
	h := sim.H
	llc := h.LLC
	hooked := sim.Hook != nil
	var last [pcSlots]uint64
	var lastWB uint64
	var lastV graph.V
	var batch [cache.BatchMax]cache.Probe
	n := 0
	data := t.data
	i := checkLLCHeader(data)
	for i < len(data) {
		b := data[i]
		i++
		op := b & opMask
		switch op {
		case lopAccessR, lopAccessW:
			var pc uint64
			if hi := b >> 4; hi != pcEscape {
				pc = uint64(hi - 1)
			} else {
				pc, i = uvarint(data, i)
			}
			var d int64
			if i < len(data) && data[i] < 0x80 {
				ux := uint64(data[i])
				d = int64(ux>>1) ^ -int64(ux&1)
				i++
			} else {
				d, i = varint(data, i)
			}
			slot := uint16(pc) & pcSlotMask
			addr := last[slot] + uint64(d)
			last[slot] = addr
			kind := cache.ProbeRead
			if op == lopAccessW {
				kind = cache.ProbeWrite
			}
			if n == cache.BatchMax {
				n = flushProbes(h, llc, &batch, n)
			}
			// The mask is a no-op (the flush above keeps n < BatchMax) that
			// lets the compiler drop the bounds check from the event loop.
			batch[n&(cache.BatchMax-1)] = cache.Probe{Addr: addr, PC: uint16(pc), Kind: kind}
			n++
		case lopWB:
			d, nn := varint(data, i)
			i = nn
			lastWB += uint64(d)
			if n == cache.BatchMax {
				n = flushProbes(h, llc, &batch, n)
			}
			batch[n&(cache.BatchMax-1)] = cache.Probe{Addr: lastWB, Kind: cache.ProbeWB}
			n++
		case lopSetVertex:
			d, nn := varint(data, i)
			i = nn
			lastV = graph.V(int64(lastV) + d)
			if hooked {
				n = flushProbes(h, llc, &batch, n)
				sim.SetVertex(lastV)
			}
		case lopStartIteration:
			if hooked {
				n = flushProbes(h, llc, &batch, n)
				sim.StartIteration()
			}
		case lopSetTile:
			tl, nn := uvarint(data, i)
			i = nn
			if hooked {
				n = flushProbes(h, llc, &batch, n)
				sim.SetTile(int(tl))
			}
		default:
			badOp(op, i-1)
		}
	}
	flushProbes(h, llc, &batch, n)
	sim.Instructions += t.instructions
	h.L1.Stats.Add(t.l1)
	h.L2.Stats.Add(t.l2)
}

// reencodeLLCEvents decodes the event bytes of an in-memory LLC stream
// starting at i and re-encodes each event through enc — the chunking path
// of WriteLLCContainer and `popttrace rechunk`. The decode arms mirror
// Replay opcode for opcode (codecpair holds them in lockstep); because
// the chunked encoder resets its delta state at chunk boundaries, the
// re-encoded bytes differ from the source stream's even though the event
// sequence is identical.
//
//popt:codec llc dec
func reencodeLLCEvents(data []byte, i int, enc *LLCEncoder) {
	var last [pcSlots]uint64
	var lastWB uint64
	var lastV graph.V
	for i < len(data) {
		b := data[i]
		i++
		op := b & opMask
		switch op {
		case lopAccessR, lopAccessW:
			var pc uint64
			if hi := b >> 4; hi != pcEscape {
				pc = uint64(hi - 1)
			} else {
				pc, i = uvarint(data, i)
			}
			d, nn := varint(data, i)
			i = nn
			slot := uint16(pc) & pcSlotMask
			addr := last[slot] + uint64(d)
			last[slot] = addr
			enc.LLCAccess(mem.Access{Addr: addr, PC: uint16(pc), Write: op == lopAccessW})
		case lopWB:
			d, nn := varint(data, i)
			i = nn
			lastWB += uint64(d)
			enc.LLCWriteback(lastWB)
		case lopSetVertex:
			d, nn := varint(data, i)
			i = nn
			lastV = graph.V(int64(lastV) + d)
			enc.SetVertex(lastV)
		case lopStartIteration:
			enc.StartIteration()
		case lopSetTile:
			tl, nn := uvarint(data, i)
			i = nn
			enc.SetTile(int(tl))
		default:
			badOp(op, i-1)
		}
	}
}

// flushProbes issues the pending probe batch against the LLC and folds
// the resulting DRAM traffic into the hierarchy's counters, returning
// the new (empty) batch length. A plain function taking the batch array
// by pointer — not a closure — so the batch stays on Replay's stack;
// noinline keeps its once-per-batch bounds check from folding back into
// the per-event decode loop.
//
//go:noinline
//popt:hot
func flushProbes(h *cache.Hierarchy, llc *cache.Level, batch *[cache.BatchMax]cache.Probe, n int) int {
	if n > 0 {
		dr, dw := llc.AccessBatch(batch[:n])
		h.DRAMReads += dr
		h.DRAMWrites += dw
	}
	return 0
}

// checkLLCHeader validates the LLC-stream header and returns the index of
// the first event byte. Mismatches panic out of line; replays of
// untrusted bytes go through DecodeLLCTrace, which rejects them with an
// error before this hot path ever runs.
//
//popt:hot
func checkLLCHeader(data []byte) int {
	if len(data) < llcHeaderLen || data[0] != magic0 || data[1] != magicLLC1 || data[2] != LLCFormatVersion {
		var m0, m1, v byte
		if len(data) >= 3 {
			m0, m1, v = data[0], data[1], data[2]
		}
		badLLCHeader(m0, m1, v)
	}
	return llcHeaderLen
}
