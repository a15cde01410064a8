package trace

import (
	"bytes"

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
// and ride in the container's stats frame instead of the event stream.

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
// Finish copies from the recording Sim.
//
// The encoder streams chunk frames through a ContainerWriter: buf holds
// one headerless chunk payload that flushes at the first event boundary
// past the byte target, with delta state reset so every chunk decodes
// independently. Resident encode memory stays O(one chunk) however long
// the recording runs, which is what lets paper-scale streams be recorded
// straight to the corpus.
type LLCEncoder struct {
	Nop
	cw     *ContainerWriter
	buf    []byte
	last   [pcSlots]uint64 // previous access address per PC slot
	lastWB uint64          // previous writeback line address
	lastV  graph.V
	stats  LLCStats

	chunkBytes      int    // cw's chunk target, copied for the per-event check
	chunkStartEvnts uint64 // stats.Events() snapshot at chunk start
	chunkFirstPC    uint64 // first access PC in the chunk + 1; 0 = none
}

// NewChunkedLLCEncoder returns an LLC-stream encoder that emits chunk
// frames through cw. Finalize with Finish; the owner then calls cw.Finish
// to seal the container.
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

// Finish flushes the trailing chunk and installs the stream totals on the
// container writer. instructions is the recording run's retired
// instruction total and l1, l2 its upper-level statistics; all three are
// invariant across LLC policy setups, so replays install them directly.
// The encoder must not be used afterwards.
func (e *LLCEncoder) Finish(instructions uint64, l1, l2 cache.Stats) error {
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
	if e.chunkFirstPC == 0 {
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

// LLCTrace is a recorded LLC-visible stream held in memory: a container
// in a byte slice, replayed through its Reader exactly like a corpus
// entry. It is safe to replay from multiple goroutines concurrently.
//
//popt:frozen
type LLCTrace struct {
	r *Reader
}

// RecordLLCTrace records an LLC-visible stream into a container held in
// memory, the way corpus.Store.Publish records into a file: record drives
// a chunked encoder (NewChunkedLLCEncoder) over cw and finishes it;
// RecordLLCTrace seals the container and opens it with
// OpenContainerBytes. chunkBytes sets the chunk target (<= 0 keeps
// DefaultChunkBytes). Only this package's encoder can write chunks to cw,
// so the bytes are trusted by construction and the Reader skips its
// one-time structural scan; replays still check every chunk's CRC.
func RecordLLCTrace(chunkBytes int, record func(cw *ContainerWriter) error) (*LLCTrace, error) {
	var buf bytes.Buffer
	cw, err := NewContainerWriter(&buf, KindLLC, Meta{})
	if err != nil {
		return nil, err
	}
	cw.SetChunkBytes(chunkBytes)
	if err := record(cw); err != nil {
		return nil, err
	}
	if err := cw.Finish(); err != nil {
		return nil, err
	}
	r, err := OpenContainerBytes(buf.Bytes())
	if err != nil {
		return nil, err
	}
	r.once.Do(func() {}) // trusted: the scan's verdict is nil
	return &LLCTrace{r: r}, nil
}

// Reader returns the container reader that replays the trace.
func (t *LLCTrace) Reader() *Reader { return t.r }

// Size returns the encoded event bytes (chunk payloads; frames and
// footer excluded).
func (t *LLCTrace) Size() int { return int(t.r.PayloadBytes()) }

// Stats returns the stream's event statistics.
func (t *LLCTrace) Stats() LLCStats { return t.r.lstats }

// BytesPerEvent returns the encoded density.
func (t *LLCTrace) BytesPerEvent() float64 {
	n := t.r.lstats.Events()
	if n == 0 {
		return 0
	}
	return float64(t.Size()) / float64(n)
}

// replayLLCChunk decodes one chunk payload in a single pass straight into
// the probe batch and returns the new batch length; Reader.ReplayLLC
// calls it chunk by chunk, and the batch carries across chunk boundaries.
// Delta state starts at zero because the encoder reset it at the
// boundary. Demand accesses and writebacks are issued through
// cache.Level.AccessBatch, which preserves event order and per-event
// semantics exactly (see its contract) while amortizing the set-mapping
// branch and statistics traffic; the batch mirrors
// cache.Hierarchy.Access's LLC branches probe for probe. Hook events
// force a flush only when the sim actually has a hook — for a hookless
// sim (the whole baseline policy zoo) they are decode-local no-ops and
// the batch runs long. Corrupt bytes panic (badOp/badEOF): the reader
// hands this loop only chunks that scanLLCFrom accepted and whose CRC
// still matches.
//
//popt:hot
//popt:codec llc dec
func replayLLCChunk(sim *Sim, batch *[cache.BatchMax]cache.Probe, n int, data []byte) int {
	h := sim.H
	llc := h.LLC
	hooked := sim.Hook != nil
	var last [pcSlots]uint64
	var lastWB uint64
	var lastV graph.V
	i := 0
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
				n = flushProbes(h, llc, batch, n)
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
				n = flushProbes(h, llc, batch, n)
			}
			batch[n&(cache.BatchMax-1)] = cache.Probe{Addr: lastWB, Kind: cache.ProbeWB}
			n++
		case lopSetVertex:
			d, nn := varint(data, i)
			i = nn
			lastV = graph.V(int64(lastV) + d)
			if hooked {
				n = flushProbes(h, llc, batch, n)
				sim.SetVertex(lastV)
			}
		case lopStartIteration:
			if hooked {
				n = flushProbes(h, llc, batch, n)
				sim.StartIteration()
			}
		case lopSetTile:
			tl, nn := uvarint(data, i)
			i = nn
			if hooked {
				n = flushProbes(h, llc, batch, n)
				sim.SetTile(int(tl))
			}
		default:
			badOp(op, i-1)
		}
	}
	return n
}

// reencodeLLCEvents decodes one chunk payload and re-encodes each event
// through enc — the chunking path of Reader.Rechunk (`popttrace
// rechunk`). The decode arms mirror replayLLCChunk opcode for opcode
// (codecpair holds them in lockstep); because the chunked encoder resets
// its delta state at its own chunk boundaries, the re-encoded bytes
// differ from the source even though the event sequence is identical.
//
//popt:codec llc dec
func reencodeLLCEvents(data []byte, enc *LLCEncoder) {
	var last [pcSlots]uint64
	var lastWB uint64
	var lastV graph.V
	i := 0
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
// by pointer — not a closure — so the batch stays on ReplayLLC's stack;
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
