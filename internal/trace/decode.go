package trace

import (
	"encoding/binary"
	"fmt"

	"popt/internal/cache"
)

// This file is the untrusted-input half of the wire format: the hot
// replay path in llc.go assumes a stream produced by this process's
// encoder and panics on corruption (badOp / badEOF / badLLCHeader), which
// is the right contract for in-memory round trips but not for bytes read
// back off disk. DecodeLLCTrace validates a byte stream completely —
// header magic, format version, every opcode, every varint boundary — and
// returns errors instead of panicking. A successfully decoded trace is
// structurally sound by construction, so its Replay may keep using the
// panic-based hot loop unchanged. This is the robustness prerequisite for
// the persistent trace corpus.

// Bytes returns the encoded LLC stream, header included — the exact byte
// form DecodeLLCTrace accepts. The slice aliases the trace's storage
// (LLCTrace is //popt:frozen): callers persist or copy it, never mutate.
func (t *LLCTrace) Bytes() []byte { return t.data }

// DecodeLLCTrace validates data as an encoded LLC-visible stream and
// returns it as a replayable LLCTrace, reading the setup-invariant totals
// (instructions, L1/L2 statistics) back out of the header. The whole
// stream is scanned: a bad magic, an unsupported format version, an
// unknown opcode, or a varint running off the end of the buffer is an
// error, never a panic. Stream statistics are recomputed during the scan,
// so the result reports Stats/BytesPerEvent exactly like the encoder that
// produced the bytes. The returned trace takes ownership of data; the
// caller must not mutate it afterwards.
func DecodeLLCTrace(data []byte) (*LLCTrace, error) {
	if err := checkLLCHeaderErr(data); err != nil {
		return nil, err
	}
	at := 3
	take := func() uint64 {
		x := binary.LittleEndian.Uint64(data[at : at+8])
		at += 8
		return x
	}
	instructions := take()
	var levels [2]cache.Stats
	for i := range levels {
		levels[i] = cache.Stats{
			Accesses:   take(),
			Hits:       take(),
			Misses:     take(),
			Evictions:  take(),
			Writebacks: take(),
		}
	}
	stats, err := scanLLC(data)
	if err != nil {
		return nil, err
	}
	return &LLCTrace{
		data:         data,
		instructions: instructions,
		l1:           levels[0],
		l2:           levels[1],
		stats:        stats,
	}, nil
}

// checkLLCHeaderErr is the error-returning counterpart of checkLLCHeader.
func checkLLCHeaderErr(data []byte) error {
	if len(data) < llcHeaderLen {
		return fmt.Errorf("trace: llc stream truncated: %d byte(s), header needs %d", len(data), llcHeaderLen)
	}
	if data[0] != magic0 || data[1] != magicLLC1 {
		return fmt.Errorf("trace: not a llc stream: magic % x, want %c%c", data[:2], magic0, magicLLC1)
	}
	if data[2] != LLCFormatVersion {
		return fmt.Errorf("trace: llc stream is format version %d, this decoder reads version %d; re-record the trace or migrate the corpus", data[2], LLCFormatVersion)
	}
	return nil
}

// scanLLC walks every event of an LLC-stream body, validating structure
// and recomputing the statistics the encoder would have collected.
func scanLLC(data []byte) (LLCStats, error) {
	return scanLLCFrom(data, llcHeaderLen)
}

// scanLLCFrom validates LLC-stream event bytes starting at i — the whole
// body for DecodeLLCTrace, a single headerless chunk payload for the
// container reader. The opcode dispatch mirrors LLCTrace.Replay arm for
// arm; the codecpair analyzer holds every decoder to the encoder's opcode
// payloads.
//
//popt:codec llc dec
func scanLLCFrom(data []byte, i int) (LLCStats, error) {
	var stats LLCStats
	for i < len(data) {
		b := data[i]
		at := i
		i++
		op := b & opMask
		var err error
		switch op {
		case lopAccessR, lopAccessW:
			if hi := b >> 4; hi == pcEscape {
				if _, i, err = uvarintChecked(data, i); err != nil {
					return LLCStats{}, err
				}
			}
			if _, i, err = varintChecked(data, i); err != nil {
				return LLCStats{}, err
			}
			stats.Accesses++
			if op == lopAccessW {
				stats.Writes++
			}
		case lopWB:
			if _, i, err = varintChecked(data, i); err != nil {
				return LLCStats{}, err
			}
			stats.Writebacks++
		case lopSetVertex:
			if _, i, err = varintChecked(data, i); err != nil {
				return LLCStats{}, err
			}
			stats.VertexUpdates++
		case lopStartIteration:
			stats.Iterations++
		case lopSetTile:
			if _, i, err = uvarintChecked(data, i); err != nil {
				return LLCStats{}, err
			}
			stats.TileSwitches++
		default:
			return LLCStats{}, fmt.Errorf("trace: corrupt llc stream: opcode %d at byte %d", op, at)
		}
	}
	return stats, nil
}

// uvarintChecked decodes a LEB128 varint at data[i:], returning an error
// (instead of uvarint's panic) when the varint runs off the buffer.
func uvarintChecked(data []byte, i int) (uint64, int, error) {
	var x uint64
	var shift uint
	for i < len(data) {
		b := data[i]
		i++
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return x, i, nil
		}
		shift += 7
	}
	return 0, i, fmt.Errorf("trace: corrupt stream: truncated varint at byte %d", i)
}

// varintChecked decodes a zigzag varint with error reporting.
func varintChecked(data []byte, i int) (int64, int, error) {
	ux, n, err := uvarintChecked(data, i)
	return int64(ux>>1) ^ -int64(ux&1), n, err
}
