package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"popt/internal/cache"
	"popt/internal/mem"
)

// This file is the read side of the chunked container (container.go holds
// the writer and the layout comment). A Reader seeks the fixed trailer,
// loads and validates the three footer frames, and then serves replay,
// verification, and re-chunking out of core: chunk payloads are fetched
// in index order, one at a time, and released as soon as they are
// consumed, so resident trace memory is one chunk — not the stream —
// which is what makes paper-scale corpora replayable on bounded RAM.
// Everything here returns errors, never panics: container bytes come off
// disk, the untrusted side of the trust boundary drawn in decode.go
// (every chunk payload is structurally validated once per Reader before
// the panic-based hot loop touches it).

// frameHeader is one decoded frame header; only cfChunk frames populate
// events and firstPC.
type frameHeader struct {
	kind    byte
	events  uint64
	firstPC uint64
	length  uint64
	crc     uint32
}

// parseFrameHeader decodes the frame header at data[i:], returning the
// header and the index of the first payload byte. The dispatch mirrors
// the writeChunkFrame/writeStatsFrame/writeIndexFrame/writeMetaFrame
// encoders arm for arm (codecpair holds them in lockstep), and an unknown
// marker is an error, never a panic.
//
//popt:codec container dec
func parseFrameHeader(data []byte, i int) (frameHeader, int, error) {
	if i >= len(data) {
		return frameHeader{}, i, fmt.Errorf("trace: corrupt container: truncated frame at byte %d", i)
	}
	var fh frameHeader
	op := data[i]
	fh.kind = op
	at := i
	i++
	var err error
	var crc uint64
	switch op {
	case cfChunk:
		if fh.events, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		if fh.firstPC, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		if fh.length, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		if crc, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		fh.crc = uint32(crc)
	case cfStats:
		if fh.length, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		if crc, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		fh.crc = uint32(crc)
	case cfIndex:
		if fh.length, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		if crc, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		fh.crc = uint32(crc)
	case cfMeta:
		if fh.length, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		if crc, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		fh.crc = uint32(crc)
	default:
		return frameHeader{}, i, fmt.Errorf("trace: corrupt container: frame marker %d at byte %d", fh.kind, at)
	}
	return fh, i, nil
}

// Reader is an opened container: the footer frames are resident, chunk
// payloads are not. Once OpenContainer returns, the Reader's metadata is
// immutable, so one Reader may serve concurrent replays (the corpus
// shares one per entry across sweep cells); only the once-computed
// verdict, the pooled read windows and the atomic resident-byte
// accounting below change afterwards.
type Reader struct {
	r         io.ReaderAt
	size      int64
	footerOff int64
	kind      byte
	meta      Meta
	chunks    []chunkInfo
	events    uint64
	payload   int64 // total chunk payload bytes
	maxChunk  int64 // largest single chunk payload
	maxFrame  int64 // largest chunk frame, header included
	streamCRC uint32

	// data, when non-nil, is a zero-copy view of the whole container
	// (an mmap of the file or a caller-held byte slice): chunkPayload
	// returns subslices instead of pread copies, and the resident
	// accounting counts mapped window bytes. closeFn releases whatever
	// backs the Reader (mapping, file handle) when set.
	data    []byte
	closeFn func() error

	// Stream totals out of the cfStats frame.
	lstats       LLCStats
	instructions uint64
	l1, l2       cache.Stats

	// once runs Verify before the first replay or rechunk and keeps its
	// verdict: the structural scan of every chunk happens once per
	// Reader, while each walk still re-checks every chunk's CRC.
	once    sync.Once
	checked error //popt:guardedby once

	// wins pools read windows for the copied (pread) mode, one per
	// concurrent walk, each sized for the largest chunk frame, so a warm
	// walk allocates nothing.
	winMu sync.Mutex
	wins  [][]byte //popt:guardedby winMu

	// Out-of-core accounting: chunk payload bytes currently resident and
	// the high-water mark, maintained by every replay/verify walk. The
	// windowed-reader test pins maxResident to one chunk.
	resident    atomic.Int64
	maxResident atomic.Int64
}

// OpenContainer validates the fixed header, the trailer, and the three
// footer frames of the container served by r and returns a Reader over
// its chunks. Chunk payloads are not read (Verify walks them all); size
// is the container's total byte length.
func OpenContainer(r io.ReaderAt, size int64) (*Reader, error) {
	if size < containerHeaderLen+containerTrailerLen {
		return nil, fmt.Errorf("trace: container truncated: %d byte(s), need at least %d", size, containerHeaderLen+containerTrailerLen)
	}
	var hdr [containerHeaderLen]byte
	if err := readFull(r, hdr[:], 0); err != nil {
		return nil, fmt.Errorf("trace: container header: %w", err)
	}
	if hdr[0] != magic0 || hdr[1] != magicContainer1 {
		return nil, fmt.Errorf("trace: not a container: magic % x, want %c%c", hdr[:2], magic0, magicContainer1)
	}
	if hdr[2] != ContainerFormatVersion {
		return nil, fmt.Errorf("trace: container is format version %d, this reader reads version %d; re-record or migrate the corpus entry", hdr[2], ContainerFormatVersion)
	}
	kind := hdr[3]
	if kind != KindLLC {
		return nil, fmt.Errorf("trace: container kind %q is not %q", kind, KindLLC)
	}
	if hdr[4] != LLCFormatVersion {
		return nil, fmt.Errorf("trace: container holds inner stream version %d, this reader reads version %d; re-record or migrate the corpus entry", hdr[4], LLCFormatVersion)
	}
	var tr [containerTrailerLen]byte
	if err := readFull(r, tr[:], size-containerTrailerLen); err != nil {
		return nil, fmt.Errorf("trace: container trailer: %w", err)
	}
	if tr[16] != magic0 || tr[17] != magicContainer1 || tr[18] != ContainerFormatVersion || tr[19] != kind {
		return nil, fmt.Errorf("trace: container trailer echo % x does not match header %c%c v%d kind %q (torn or truncated write)", tr[16:20], magic0, magicContainer1, ContainerFormatVersion, kind)
	}
	fo := binary.LittleEndian.Uint64(tr[0:8])
	fl := binary.LittleEndian.Uint64(tr[8:16])
	if fo < containerHeaderLen || fo+fl < fo || fo+fl != uint64(size)-containerTrailerLen {
		return nil, fmt.Errorf("trace: container footer bounds [%d,+%d) do not tile the %d-byte file", fo, fl, size)
	}
	footer := make([]byte, int(fl))
	if err := readFull(r, footer, int64(fo)); err != nil {
		return nil, fmt.Errorf("trace: container footer: %w", err)
	}
	rd := &Reader{r: r, size: size, footerOff: int64(fo), kind: kind}

	// The footer is exactly three frames in fixed order.
	var payloads [3][]byte
	i := 0
	for f, want := range [3]byte{cfStats, cfIndex, cfMeta} {
		fh, j, err := parseFrameHeader(footer, i)
		if err != nil {
			return nil, err
		}
		if fh.kind != want {
			return nil, fmt.Errorf("trace: container footer frame %d has marker %d, want %d", f, fh.kind, want)
		}
		if fh.length > uint64(len(footer)-j) {
			return nil, fmt.Errorf("trace: container footer frame %d overruns the footer (%d byte payload, %d left)", f, fh.length, len(footer)-j)
		}
		p := footer[j : j+int(fh.length)]
		if crc := crc32.ChecksumIEEE(p); crc != fh.crc {
			return nil, fmt.Errorf("trace: container footer frame %d CRC mismatch: stored %08x, computed %08x", f, fh.crc, crc)
		}
		payloads[f] = p
		i = j + int(fh.length)
	}
	if i != len(footer) {
		return nil, fmt.Errorf("trace: container footer has %d trailing byte(s) after its three frames", len(footer)-i)
	}
	if err := rd.decodeStats(payloads[0]); err != nil {
		return nil, err
	}
	if err := rd.decodeIndex(payloads[1]); err != nil {
		return nil, err
	}
	m, err := decodeMeta(payloads[2])
	if err != nil {
		return nil, err
	}
	rd.meta = m
	return rd, nil
}

// OpenContainerBytes opens a container held entirely in data (an mmap
// view or an in-memory build). Chunk payloads are served as subslices —
// zero copies — and the Reader runs in the "mapped" window mode.
func OpenContainerBytes(data []byte) (*Reader, error) {
	rd, err := OpenContainer(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	rd.data = data
	return rd, nil
}

// OpenContainerFile opens the container at path, preferring a zero-copy
// mmap of the file; when mapping is unavailable (platform stub, empty or
// oversized file) it falls back to the bounded-window pread path over the
// open file. Either way the caller owns the Reader and must Close it.
func OpenContainerFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if mp, err := mem.MapFile(f); err == nil {
		rd, err := OpenContainerBytes(mp.Data)
		if err != nil {
			mp.Close()
			f.Close()
			return nil, err
		}
		// The mapping keeps the pages; the descriptor can go now.
		f.Close()
		rd.closeFn = mp.Close
		return rd, nil
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	rd, err := OpenContainer(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	rd.closeFn = f.Close
	return rd, nil
}

// WindowMode reports how chunk windows are served: "mapped" (zero-copy
// views of an mmap or in-memory container) or "copied" (pread into
// per-chunk buffers).
func (r *Reader) WindowMode() string {
	if r.data != nil {
		return "mapped"
	}
	return "copied"
}

// Close releases whatever backs the Reader (file mapping or descriptor).
// Readers over caller-owned io.ReaderAts have nothing to release and
// Close is a no-op. No replay may be in flight when Close is called: for
// a mapped Reader the chunk views die with the mapping.
func (r *Reader) Close() error {
	if r.closeFn == nil {
		return nil
	}
	fn := r.closeFn
	r.closeFn = nil
	r.data = nil
	return fn()
}

// readFull reads exactly len(p) bytes at off.
func readFull(r io.ReaderAt, p []byte, off int64) error {
	n, err := r.ReadAt(p, off)
	if n < len(p) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// decodeStats parses the cfStats payload (the encodeLLCStats layout) and
// requires it to be exactly consumed.
func (r *Reader) decodeStats(p []byte) error {
	i := 0
	take := func() uint64 {
		if i < 0 {
			return 0
		}
		x, j, err := uvarintChecked(p, i)
		if err != nil {
			i = -1
			return 0
		}
		i = j
		return x
	}
	r.streamCRC = uint32(take())
	r.instructions = take()
	for _, lv := range [2]*cache.Stats{&r.l1, &r.l2} {
		*lv = cache.Stats{
			Accesses: take(), Hits: take(), Misses: take(),
			Evictions: take(), Writebacks: take(),
		}
	}
	r.lstats = LLCStats{
		Accesses: take(), Writes: take(), Writebacks: take(),
		VertexUpdates: take(), Iterations: take(), TileSwitches: take(),
	}
	if i != len(p) {
		return fmt.Errorf("trace: container stats frame malformed (%d bytes, consumed %d)", len(p), i)
	}
	return nil
}

// decodeIndex parses the cfIndex payload into the chunk table, bounding
// every entry against the data region before any chunk is read.
func (r *Reader) decodeIndex(p []byte) error {
	count, i, err := uvarintChecked(p, 0)
	if err != nil {
		return err
	}
	// Each entry is at least five bytes of varints; reject counts the
	// payload cannot hold before allocating.
	if count > uint64(len(p)/5)+1 {
		return fmt.Errorf("trace: container index claims %d chunks in %d bytes", count, len(p))
	}
	chunks := make([]chunkInfo, 0, count)
	var off, prevEnd uint64
	for c := uint64(0); c < count; c++ {
		var d, events, firstPC, length, crc uint64
		if d, i, err = uvarintChecked(p, i); err != nil {
			return err
		}
		if events, i, err = uvarintChecked(p, i); err != nil {
			return err
		}
		if firstPC, i, err = uvarintChecked(p, i); err != nil {
			return err
		}
		if length, i, err = uvarintChecked(p, i); err != nil {
			return err
		}
		if crc, i, err = uvarintChecked(p, i); err != nil {
			return err
		}
		off += d
		if c == 0 && off != containerHeaderLen {
			return fmt.Errorf("trace: container index: first chunk at offset %d, want %d", off, containerHeaderLen)
		}
		if c > 0 && off < prevEnd {
			return fmt.Errorf("trace: container index: chunk %d at offset %d overlaps the previous chunk", c, off)
		}
		if length == 0 {
			return fmt.Errorf("trace: container index: chunk %d is empty (the writer never emits empty chunks)", c)
		}
		if off+length < off || off+length > uint64(r.footerOff) {
			return fmt.Errorf("trace: container index: chunk %d [%d,+%d) overruns the data region ending at %d", c, off, length, r.footerOff)
		}
		if events > 2*length {
			return fmt.Errorf("trace: container index: chunk %d claims %d events in %d bytes", c, events, length)
		}
		ci := chunkInfo{
			off: int64(off), events: events, firstPC: firstPC,
			length: length, crc: uint32(crc),
		}
		chunks = append(chunks, ci)
		prevEnd = off + length
		r.events += events
		r.payload += int64(length)
		r.maxChunk = max(r.maxChunk, int64(length))
		r.maxFrame = max(r.maxFrame, int64(frameHeaderLen(ci))+int64(length))
	}
	if i != len(p) {
		return fmt.Errorf("trace: container index frame malformed (%d bytes, consumed %d)", len(p), i)
	}
	r.chunks = chunks
	return nil
}

// decodeMeta parses the cfMeta payload's length-prefixed key/value pairs.
// Unknown keys are skipped so the set can grow under the container
// version's discipline.
func decodeMeta(p []byte) (Meta, error) {
	var m Meta
	count, i, err := uvarintChecked(p, 0)
	if err != nil {
		return Meta{}, err
	}
	if count > uint64(len(p)) {
		return Meta{}, fmt.Errorf("trace: container meta frame claims %d pairs in %d bytes", count, len(p))
	}
	str := func() (string, error) {
		n, j, err := uvarintChecked(p, i)
		if err != nil {
			return "", err
		}
		if n > uint64(len(p)-j) {
			return "", fmt.Errorf("trace: container meta frame: %d-byte string overruns the %d-byte frame", n, len(p))
		}
		i = j + int(n)
		return string(p[j : j+int(n)]), nil
	}
	for c := uint64(0); c < count; c++ {
		k, err := str()
		if err != nil {
			return Meta{}, err
		}
		v, err := str()
		if err != nil {
			return Meta{}, err
		}
		switch k {
		case "workload":
			m.Workload = v
		case "schedule":
			m.Schedule = v
		case "scale":
			m.Scale = v
		case "seed":
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Meta{}, fmt.Errorf("trace: container meta frame: bad seed %q", v)
			}
			m.Seed = seed
		}
	}
	if i != len(p) {
		return Meta{}, fmt.Errorf("trace: container meta frame malformed (%d bytes, consumed %d)", len(p), i)
	}
	return m, nil
}

// Kind returns the inner stream kind (always KindLLC).
func (r *Reader) Kind() byte { return r.kind }

// Meta returns the identifying metadata recorded with the stream.
func (r *Reader) Meta() Meta { return r.meta }

// Chunks returns the number of chunk frames.
func (r *Reader) Chunks() int { return len(r.chunks) }

// Events returns the total event count across all chunks.
func (r *Reader) Events() uint64 { return r.events }

// Size returns the container's total byte length.
func (r *Reader) Size() int64 { return r.size }

// PayloadBytes returns the total chunk payload bytes (the encoded event
// stream, frames and footer excluded).
func (r *Reader) PayloadBytes() int64 { return r.payload }

// MaxChunkBytes returns the largest single chunk payload.
func (r *Reader) MaxChunkBytes() int64 { return r.maxChunk }

// StreamCRC returns the whole-stream CRC recorded at write time.
func (r *Reader) StreamCRC() uint32 { return r.streamCRC }

// LLCTotals returns the stream totals of the container: the
// setup-invariant instruction count and L1/L2 statistics the replay
// installs, plus the event statistics. ok is always true: every
// container holds the LLC-visible stream.
func (r *Reader) LLCTotals() (instructions uint64, l1, l2 cache.Stats, stats LLCStats, ok bool) {
	return r.instructions, r.l1, r.l2, r.lstats, r.kind == KindLLC
}

// MaxResidentBytes returns the high-water mark of simultaneously resident
// chunk payload bytes across every replay/verify walk of this Reader —
// the out-of-core bound the windowed-reader test pins.
func (r *Reader) MaxResidentBytes() int64 { return r.maxResident.Load() }

// acquire charges n payload bytes to the resident accounting.
func (r *Reader) acquire(n int64) {
	res := r.resident.Add(n)
	for {
		hw := r.maxResident.Load()
		if res <= hw || r.maxResident.CompareAndSwap(hw, res) {
			return
		}
	}
}

// release returns n payload bytes.
func (r *Reader) release(n int64) { r.resident.Add(-n) }

// window returns a read window for one walk: nil in mapped mode (chunk
// views are subslices of the mapping), else a pooled buffer that holds
// the largest chunk frame.
func (r *Reader) window() []byte {
	if r.data != nil {
		return nil
	}
	r.winMu.Lock()
	defer r.winMu.Unlock()
	if k := len(r.wins); k > 0 {
		w := r.wins[k-1]
		r.wins = r.wins[:k-1]
		return w
	}
	return make([]byte, r.maxFrame)
}

// putWindow returns a window taken with window.
func (r *Reader) putWindow(w []byte) {
	if w == nil {
		return
	}
	r.winMu.Lock()
	r.wins = append(r.wins, w)
	r.winMu.Unlock()
}

// chunkPayload reads, bounds-checks, and CRC-checks chunk c's payload,
// charging it to the resident accounting (the caller releases it). In
// copied mode the frame is read into win with one pread; in mapped mode
// the returned slice is a zero-copy view of the container bytes, and the
// accounting counts mapped window bytes, the same bound with the copies
// removed. The on-disk frame header is re-parsed and cross-checked
// against the index entry, so a container whose two copies disagree is
// rejected however it is read.
func (r *Reader) chunkPayload(c int, win []byte) ([]byte, error) {
	ci := r.chunks[c]
	hl := frameHeaderLen(ci)
	end := ci.off + int64(hl) + int64(ci.length)
	if end > r.footerOff {
		return nil, fmt.Errorf("trace: container chunk %d payload overruns the data region", c)
	}
	var f []byte
	if r.data != nil {
		f = r.data[ci.off:end:end]
	} else {
		f = win[:end-ci.off]
		if err := readFull(r.r, f, ci.off); err != nil {
			return nil, fmt.Errorf("trace: container chunk %d: %w", c, err)
		}
	}
	fh, j, err := parseFrameHeader(f, 0)
	if err != nil {
		return nil, fmt.Errorf("trace: container chunk %d: %w", c, err)
	}
	if j != hl || fh != (frameHeader{kind: cfChunk, events: ci.events, firstPC: ci.firstPC, length: ci.length, crc: ci.crc}) {
		return nil, fmt.Errorf("trace: container chunk %d frame header disagrees with the seek index", c)
	}
	p := f[hl:]
	if crc := crc32.ChecksumIEEE(p); crc != ci.crc {
		return nil, fmt.Errorf("trace: container chunk %d CRC mismatch: stored %08x, computed %08x", c, ci.crc, crc)
	}
	r.acquire(int64(ci.length))
	return p, nil
}

// Verify walks the whole container: it checks that the chunk frames tile
// the data region exactly, re-reads every chunk (frame header vs index,
// payload CRC, full structural scan, event count vs index), and
// cross-checks the accumulated statistics and stream CRC against the
// cfStats frame. A nil return means every byte between header and
// trailer has been validated.
func (r *Reader) Verify() error {
	win := r.window()
	defer r.putWindow(win)
	expect := int64(containerHeaderLen)
	var crc uint32
	var lsum LLCStats
	for c, ci := range r.chunks {
		if ci.off != expect {
			return fmt.Errorf("trace: container chunk %d at offset %d, want %d (frames must tile the data region)", c, ci.off, expect)
		}
		p, err := r.chunkPayload(c, win)
		if err != nil {
			return err
		}
		s, err := scanLLCFrom(p)
		r.release(int64(len(p)))
		if err != nil {
			return fmt.Errorf("trace: container chunk %d: %w", c, err)
		}
		if s.Events() != ci.events {
			return fmt.Errorf("trace: container chunk %d holds %d events, the index says %d", c, s.Events(), ci.events)
		}
		lsum.Accesses += s.Accesses
		lsum.Writes += s.Writes
		lsum.Writebacks += s.Writebacks
		lsum.VertexUpdates += s.VertexUpdates
		lsum.Iterations += s.Iterations
		lsum.TileSwitches += s.TileSwitches
		crc = crc32.Update(crc, crc32.IEEETable, p)
		// chunkPayload accepted the frame header only at its minimal
		// length, so the next frame starts right after header+payload.
		expect = ci.off + int64(frameHeaderLen(ci)) + int64(ci.length)
	}
	if expect != r.footerOff {
		return fmt.Errorf("trace: container data region ends at %d but the footer starts at %d", expect, r.footerOff)
	}
	if crc != r.streamCRC {
		return fmt.Errorf("trace: container stream CRC mismatch: stored %08x, computed %08x", r.streamCRC, crc)
	}
	if lsum != r.lstats {
		return fmt.Errorf("trace: container stats frame %+v disagrees with the scanned chunks %+v", r.lstats, lsum)
	}
	return nil
}

// verifyOnce runs Verify on the first call and returns its verdict on
// every call: the hot replay decoder and the re-encoder trust chunk
// structure only after this scan, and re-check each chunk's CRC on every
// walk so damage appearing later is still an error.
func (r *Reader) verifyOnce() error {
	r.once.Do(func() { r.checked = r.Verify() })
	return r.checked
}

// frameHeaderLen returns the encoded length of ci's chunk frame header:
// the marker byte plus the four uvarints writeChunkFrame emits.
func frameHeaderLen(ci chunkInfo) int {
	return 1 + uvarintLen(ci.events) + uvarintLen(ci.firstPC) + uvarintLen(ci.length) + uvarintLen(uint64(ci.crc))
}

// uvarintLen returns the LEB128-encoded byte length of x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// ReplayLLC drives sim's LLC with the container's stream and installs
// the setup-invariant totals (instructions, L1/L2 statistics),
// reproducing a live run counter for counter — the replay-equivalence
// golden in internal/bench pins this across the policy zoo. Chunks are
// walked in recorded order with one resident at a time: each payload is
// fetched, its CRC checked, and decoded in one pass into a probe batch
// that lives on this frame and carries across chunk boundaries. The
// structural scan runs once per Reader (verifyOnce), before the first
// replay. Errors abort the replay and leave sim partially advanced;
// callers discard it.
func (r *Reader) ReplayLLC(sim *Sim) error {
	if err := r.verifyOnce(); err != nil {
		return err
	}
	win := r.window()
	defer r.putWindow(win)
	var batch [cache.BatchMax]cache.Probe
	n := 0
	for c := range r.chunks {
		p, err := r.chunkPayload(c, win)
		if err != nil {
			return err
		}
		n = replayLLCChunk(sim, &batch, n, p)
		r.release(int64(len(p)))
	}
	h := sim.H
	flushProbes(h, h.LLC, &batch, n)
	sim.Instructions += r.instructions
	h.L1.Stats.Add(r.l1)
	h.L2.Stats.Add(r.l2)
	return nil
}

// Rechunk rewrites the container on w with a new chunk-size target by
// decoding each chunk and re-encoding the identical event sequence
// through a fresh chunked encoder. Statistics and metadata carry over;
// the stream CRC changes with the chunk boundaries (delta state resets
// move), which is why Verify recomputes rather than compares across
// containers — equivalence is checked at the event level by the rechunk
// round-trip test.
func (r *Reader) Rechunk(w io.Writer, chunkBytes int) error {
	if err := r.verifyOnce(); err != nil {
		return err
	}
	cw, err := NewContainerWriter(w, r.kind, r.meta)
	if err != nil {
		return err
	}
	cw.SetChunkBytes(chunkBytes)
	enc := NewChunkedLLCEncoder(cw)
	win := r.window()
	defer r.putWindow(win)
	for c := range r.chunks {
		p, err := r.chunkPayload(c, win)
		if err != nil {
			return err
		}
		reencodeLLCEvents(p, enc)
		r.release(int64(len(p)))
	}
	if err := enc.Finish(r.instructions, r.l1, r.l2); err != nil {
		return err
	}
	return cw.Finish()
}
