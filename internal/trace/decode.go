package trace

import "fmt"

// This file is the untrusted-input half of the wire format: the hot
// replay decoder in llc.go assumes structurally sound chunk bytes and
// panics on corruption (badOp / badEOF), while container bytes come off
// disk. scanLLCFrom validates a chunk payload completely — every opcode,
// every varint boundary — and returns errors instead of panicking. A
// Reader runs it over every chunk once (Verify, before its first replay
// or rechunk); every later replay re-checks each chunk's CRC, so the
// bytes the hot loop decodes are the bytes the scan accepted.

// scanLLCFrom validates one headerless chunk payload of LLC-stream event
// bytes and recomputes the statistics the encoder collected for it. The
// opcode dispatch mirrors replayLLCChunk arm for arm; the codecpair
// analyzer holds every decoder to the encoder's opcode payloads.
//
//popt:codec llc dec
func scanLLCFrom(data []byte) (LLCStats, error) {
	var stats LLCStats
	i := 0
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
