package trace

import "fmt"

// Shared pieces of the varint/delta wire codecs. Access events inline the
// PC in the high nibble of the opcode byte: hi = PC+1 for PC <= pcInline,
// hi = pcEscape marks an escaped uvarint PC before the delta. Kernel PC
// site ids are single digits (kernels.PCOffsets..PCCompWrite), so in
// practice every access costs one opcode byte plus its address delta.
const (
	opMask   byte = 0x0f
	pcEscape byte = 15 // high-nibble marker: uvarint PC follows
	pcInline      = 13 // largest PC the high nibble can carry
)

// pcSlots is the size of the per-PC delta context. PCs above the slot
// count share slot pc%pcSlots — encoder and decoder apply the same rule,
// so collisions only cost larger deltas, never correctness. pcSlots is a
// power of two so the slot map is a single AND with pcSlotMask (a
// constant power-of-two modulo needs no fastmod reciprocal); the encode
// and decode hot loops in llc.go all take this path, while the
// non-constant set-count modulo the replayed accesses hit inside the LLC
// runs on the Level's fastmod datapath.
const pcSlots = 256

// pcSlotMask masks a PC into its delta slot.
const pcSlotMask = pcSlots - 1

// Compile-time guard that pcSlots stays a power of two: the array length
// goes negative (a compile error) otherwise.
var _ = [1 - pcSlots&(pcSlots-1)]struct{}{}

// appendUvarint appends x in LEB128 form.
//
//popt:hot
func appendUvarint(buf []byte, x uint64) []byte {
	for x >= 0x80 {
		buf = append(buf, byte(x)|0x80)
		x >>= 7
	}
	return append(buf, byte(x))
}

// appendVarint appends x zigzag-encoded.
//
//popt:hot
func appendVarint(buf []byte, x int64) []byte {
	return appendUvarint(buf, uint64(x)<<1^uint64(x>>63))
}

// uvarint decodes a LEB128 varint at data[i:], returning the value and the
// index past it.
//
//popt:hot
func uvarint(data []byte, i int) (uint64, int) {
	var x uint64
	var shift uint
	for i < len(data) {
		b := data[i]
		i++
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return x, i
		}
		shift += 7
	}
	badEOF(i)
	return 0, i
}

// varint decodes a zigzag varint.
//
//popt:hot
func varint(data []byte, i int) (int64, int) {
	ux, n := uvarint(data, i)
	return int64(ux>>1) ^ -int64(ux&1), n
}

// badOp panics on a corrupt opcode. The hot decoders only see chunk
// payloads whose structure the Reader's one-time scan accepted and whose
// CRC still matches, so this is a programming error, not an input error.
// The panic (and its fmt boxing) lives out of line so the replay
// decoder's frame stays escape-free.
//
//go:noinline
func badOp(op byte, at int) {
	panic(fmt.Sprintf("trace: corrupt stream: opcode %d at byte %d", op, at))
}

//go:noinline
func badEOF(at int) {
	panic(fmt.Sprintf("trace: corrupt stream: truncated varint at byte %d", at))
}
