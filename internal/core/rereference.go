// Package core implements the paper's contribution: transpose-based
// optimal cache replacement (T-OPT) and its practical architecture P-OPT,
// built around the quantized Rereference Matrix (Sections III-V).
//
// Both policies plug into the internal/cache Policy interface and manage
// the irregularly accessed arrays of a graph kernel (srcData/dstData and
// frontiers). T-OPT consults the graph's transpose directly and is the
// idealized, zero-overhead upper bound; P-OPT consults the Rereference
// Matrix, pays for it with reserved LLC ways and epoch-boundary column
// streaming, and approaches T-OPT closely (Fig. 7, 10). Both read one
// merged transpose (LineRefs): the simulator computes P-OPT's quantized
// entries from it on demand instead of storing the matrix.
package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"popt/internal/graph"
	"popt/internal/mem"
)

// Kind selects the Rereference Matrix entry encoding.
type Kind int

const (
	// InterOnly entries store only the distance (in epochs) to the epoch
	// of the line's next reference (Fig. 5). Cheap but lossy: after the
	// final access within an epoch the entry still reads 0.
	InterOnly Kind = iota
	// InterIntra is the paper's default (Fig. 6): the MSB selects between
	// inter-epoch distance and the intra-epoch sub-epoch of the line's
	// final access, eliminating most quantization loss at the cost of one
	// bit of distance range.
	InterIntra
	// SingleEpoch is P-OPT-SE (Section VII-B): only the current epoch's
	// column is kept resident; a second reserved bit records whether the
	// line is referenced in the next epoch. Halves the metadata footprint
	// and the tracked distance range again.
	SingleEpoch
)

func (k Kind) String() string {
	switch k {
	case InterOnly:
		return "inter-only"
	case InterIntra:
		return "inter+intra"
	default:
		return "single-epoch"
	}
}

// Table is the immutable half of a Rereference Matrix: the epoch geometry
// of the quantized next-reference entries — one row per cache line of the
// irregular array, one column per epoch of the outer traversal loop — laid
// over the merged transpose (LineRefs) that every entry is a function of.
// The entries are never stored. Entry and Matrix.NextRef compute them on
// demand from one lookup into the line's sorted reference list, much as
// the paper's hardware only ever holds the current and next columns
// (Section IV); Encode materializes the dense matrix for Table IV's
// preprocessing measurement and for the tests. A Table never changes after
// construction, so one Table, and one LineRefs behind any number of
// Tables, can back any number of concurrent simulations; per-run state
// lives in Matrix.
//
//popt:frozen
type Table struct {
	Kind Kind
	// Bits is the entry width (4 to 16; the paper's default is 8).
	Bits uint
	// NumLines is the number of cache lines spanned by the array.
	NumLines int
	// ElemsPerLine is how many vertices share one cache line of the array.
	ElemsPerLine int
	// NumEpochs, EpochSize: the outer loop's vertex range is cut into
	// NumEpochs epochs of EpochSize vertices (last one ragged).
	NumEpochs int
	EpochSize int
	// SubEpochs, SubEpochSize: within an epoch, intra encodings quantize
	// the final access into SubEpochs partitions.
	SubEpochs    int
	SubEpochSize int
	// numVertices is the outer loop trip count: references at or past it
	// are never reached and never encoded.
	numVertices int
	// refs holds each line's sorted reference positions.
	refs *LineRefs
	// epochDiv/subDiv are precomputed fastdiv reciprocals for EpochSize
	// and SubEpochSize: EpochOf and NextRef sit on P-OPT's victim-search
	// hot path (one lookup per candidate way per replacement) and the
	// epoch sizes are runtime values, so the hardware division they would
	// otherwise cost is strength-reduced once at construction.
	epochDiv mem.Divider
	subDiv   mem.Divider
}

// MemBytes returns the resident size behind the table, for footprint
// reports (-memstats): the merged transpose it answers from. It does not
// depend on the entry width, because the dense matrix (TotalBytes) is
// never allocated on the simulation path.
func (t *Table) MemBytes() uint64 { return t.refs.MemBytes() }

// Matrix is one run's view of a Rereference Matrix: the shared immutable
// Table plus whatever per-run mutable state a simulation accumulates.
// Sharing a Matrix between concurrent simulations is a data race; sharing
// the Table behind any number of NewMatrix views is free and safe, which
// is what lets a parallel sweep build each merged transpose once and hand
// every cell its own cheap view.
type Matrix struct {
	*Table
	// Queries counts NextRef consultations through this view (one per
	// candidate way per matrix-guided replacement).
	Queries uint64
	// cursor holds, per line, the index into the line's reference list
	// where its previous query landed; seek starts there.
	cursor []uint32
}

// NewMatrix returns a fresh per-run view of the table. Views are cheap:
// they share the merged transpose and own only counters and cursors.
func (t *Table) NewMatrix() *Matrix {
	return &Matrix{Table: t, cursor: make([]uint32, t.NumLines)}
}

// distBits returns the width of the distance field for the encoding.
func (k Kind) distBits(bits uint) uint {
	switch k {
	case InterOnly:
		return bits
	case InterIntra:
		return bits - 1
	default: // SingleEpoch reserves MSB (intra flag) and next-epoch bit
		return bits - 2
	}
}

// MaxDist returns the saturating/sentinel distance value: entries at
// MaxDist mean "next reference at least this many epochs away (possibly
// never)".
func (t *Table) MaxDist() int { return 1<<t.Kind.distBits(t.Bits) - 1 }

// BuildMatrix constructs the Rereference Matrix for an irregular array
// whose element for vertex v is referenced once per occurrence of v in the
// inner loop of a traversal, i.e. at every outer-loop vertex in refAdj's
// neighbor list of v. For a pull kernel refAdj is the graph's out-adjacency
// (the transpose of the traversed CSC); for push it is the in-adjacency.
//
// It is BuildTable plus a fresh per-run view; callers that want to share
// one build across runs keep the Table and call NewMatrix per run.
func BuildMatrix(refAdj *graph.Adj, numVertices, elemsPerLine int, kind Kind, bits uint) *Matrix {
	return BuildTable(refAdj, numVertices, elemsPerLine, kind, bits).NewMatrix()
}

// BuildTable constructs a Rereference Matrix table: the merged transpose
// of refAdj at this line geometry (BuildLineRefs) with the encoding's
// epoch geometry over it. numVertices is the outer loop trip count,
// elemsPerLine how many vertices share a line of the array (16 for 4 B
// data, 8 for 8 B, 512 for bit frontiers). Callers that already hold the
// merged transpose, which T-OPT reads too, use NewTable instead.
func BuildTable(refAdj *graph.Adj, numVertices, elemsPerLine int, kind Kind, bits uint) *Table {
	return NewTable(BuildLineRefs(refAdj, elemsPerLine), numVertices, elemsPerLine, kind, bits)
}

// NewTable lays a Rereference Matrix's epoch geometry over an existing
// merged transpose, which must have been built at the same elemsPerLine.
// It costs no pass over the references, so tables of every encoding and
// width can share one LineRefs.
func NewTable(lr *LineRefs, numVertices, elemsPerLine int, kind Kind, bits uint) *Table {
	if bits < 4 || bits > 16 {
		panic(fmt.Sprintf("core: unsupported quantization width %d", bits))
	}
	if kind == SingleEpoch && bits < 5 {
		panic("core: single-epoch encoding needs at least 5 bits")
	}
	// The number of epochs is bounded by the representable ID range
	// (2^bits; the paper's 8-bit default gives 256 epochs with
	// EpochSize = ceil(numVertices/256)) and by the vertex count itself.
	quantEpochs := 1 << bits
	if quantEpochs > numVertices {
		quantEpochs = numVertices
	}
	if quantEpochs < 1 {
		quantEpochs = 1
	}
	return newTable(lr, numVertices, elemsPerLine, kind, bits, (numVertices+quantEpochs-1)/quantEpochs)
}

// newTable builds the geometry for a given epoch size; the tests pin the
// paper's hand-drawn geometries through it.
func newTable(lr *LineRefs, numVertices, elemsPerLine int, kind Kind, bits uint, epochSize int) *Table {
	subEpochs := 1<<kind.distBits(bits) - 1
	if subEpochs < 1 {
		subEpochs = 1
	}
	subEpochSize := (epochSize + subEpochs - 1) / subEpochs
	return &Table{
		Kind: kind, Bits: bits, NumLines: lr.numLines(), ElemsPerLine: elemsPerLine,
		NumEpochs: (numVertices + epochSize - 1) / epochSize, EpochSize: epochSize,
		SubEpochs: subEpochs, SubEpochSize: subEpochSize,
		numVertices: numVertices, refs: lr,
		epochDiv: mem.NewDivider(uint64(epochSize)),
		subDiv:   mem.NewDivider(uint64(subEpochSize)),
	}
}

// minLinesPerWorker bounds the parallel-fill grain: below this many rows
// per worker the goroutine fan-out costs more than the row scans.
const minLinesPerWorker = 256

// Encode materializes the dense Rereference Matrix the paper keeps in
// memory, row-major: entry (line, epoch) at [line*NumEpochs+epoch], equal
// to Entry(line, epoch). Simulation never needs it, since replacement only
// reads two columns and NextRef computes those from the merged transpose;
// it is the preprocessing step Table IV measures, and the tests' oracle.
// Rows are filled in parallel across GOMAXPROCS workers (each row reads
// only its own line's references), and the result is identical at every
// worker count.
func (t *Table) Encode() []uint16 {
	out := make([]uint16, t.NumLines*t.NumEpochs)
	workers := runtime.GOMAXPROCS(0)
	if max := t.NumLines / minLinesPerWorker; workers > max {
		workers = max
	}
	if workers <= 1 {
		t.fillLines(out, 0, t.NumLines, make([]bool, t.NumEpochs), make([]uint16, t.NumEpochs))
		return out
	}
	var wg sync.WaitGroup
	chunk := (t.NumLines + workers - 1) / workers
	for lo := 0; lo < t.NumLines; lo += chunk {
		hi := lo + chunk
		if hi > t.NumLines {
			hi = t.NumLines
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			t.fillLines(out, lo, hi, make([]bool, t.NumEpochs), make([]uint16, t.NumEpochs))
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// fillLines is the row worker of Encode: it encodes the rows [lo, hi)
// into out. hasRef and lastSub are caller-provided per-worker scratch of
// length NumEpochs (allocated outside so this inner loop stays
// allocation-free).
//
//popt:hot
func (t *Table) fillLines(out []uint16, lo, hi int, hasRef []bool, lastSub []uint16) {
	kind, bits := t.Kind, t.Bits
	maxDist := uint16(t.MaxDist())
	msbMask := uint16(1) << (bits - 1)
	nextBitMask := uint16(0)
	if kind == SingleEpoch {
		nextBitMask = 1 << (bits - 2)
	}
	for line := lo; line < hi; line++ {
		for e := range hasRef {
			hasRef[e] = false
			lastSub[e] = 0
		}
		// Per epoch: whether any reference lands there, and the sub-epoch
		// of the LAST reference in that epoch.
		for _, d := range t.refs.line(line) {
			if int(d) >= t.numVertices {
				break // sorted: the outer loop reaches none of the rest
			}
			e := int(t.epochDiv.Div(uint64(d)))
			sub := int(t.subDiv.Div(uint64(int(d) - e*t.EpochSize)))
			if sub >= t.SubEpochs {
				sub = t.SubEpochs - 1
			}
			if !hasRef[e] || uint16(sub) > lastSub[e] {
				lastSub[e] = uint16(sub)
			}
			hasRef[e] = true
		}
		// Walk epochs backward, tracking the next referencing epoch.
		next := -1 // -1 = no further reference
		row := out[line*t.NumEpochs : (line+1)*t.NumEpochs]
		for e := t.NumEpochs - 1; e >= 0; e-- {
			dist := int(maxDist)
			if hasRef[e] {
				dist = 0
			} else if next >= 0 {
				if d := next - e; d < dist {
					dist = d
				}
			}
			switch kind {
			case InterOnly:
				row[e] = uint16(dist)
			case InterIntra:
				if hasRef[e] {
					row[e] = lastSub[e] // MSB 0: intra info
				} else {
					row[e] = msbMask | uint16(dist)
				}
			case SingleEpoch:
				if hasRef[e] {
					row[e] = lastSub[e]
					if e+1 < t.NumEpochs && hasRef[e+1] {
						row[e] |= nextBitMask
					}
				} else {
					row[e] = msbMask | uint16(dist)
				}
			}
			if hasRef[e] {
				next = e
			}
		}
	}
}

// epochBounds returns the outer-loop range [start, end) of epoch e.
func (t *Table) epochBounds(e int) (start, end int) {
	start = e * t.EpochSize
	end = start + t.EpochSize
	if end > t.numVertices {
		end = t.numVertices
	}
	return start, end
}

// around splits a line's reference list at index i: prev is the last
// reference before i (-1 if none) and next the first at or after i that
// the outer loop reaches (-1 if none).
func (t *Table) around(seg []graph.V, i int) (prev, next int) {
	prev, next = -1, -1
	if i > 0 {
		prev = int(seg[i-1])
	}
	if i < len(seg) && int(seg[i]) < t.numVertices {
		next = int(seg[i])
	}
	return prev, next
}

// dist returns the saturating distance in epochs from epoch e to the epoch
// of reference next, or MaxDist when there is none (next < 0).
func (t *Table) dist(e, next int) int {
	d := t.MaxDist()
	if next >= 0 {
		if n := t.EpochOf(graph.V(next)) - e; n < d {
			d = n
		}
	}
	return d
}

// Entry returns the encoded entry at (line, epoch), computed from the
// line's references on either side of the epoch's end: the last one
// before it says whether, and in which sub-epoch, the epoch references
// the line; the first one after it says how far away the next
// referencing epoch is.
func (t *Table) Entry(line, epoch int) uint16 {
	start, end := t.epochBounds(epoch)
	seg := t.refs.line(line)
	prev, next := t.around(seg, seek(seg, 0, graph.V(end)))
	if prev < start {
		// Not referenced this epoch: the distance, under the MSB for the
		// intra encodings.
		d := uint16(t.dist(epoch, next))
		if t.Kind == InterOnly {
			return d
		}
		return 1<<(t.Bits-1) | d
	}
	if t.Kind == InterOnly {
		return 0
	}
	sub := int(t.subDiv.Div(uint64(prev - start)))
	if sub >= t.SubEpochs {
		sub = t.SubEpochs - 1
	}
	entry := uint16(sub) // MSB 0: the sub-epoch of the final access
	if t.Kind == SingleEpoch && next >= 0 && t.EpochOf(graph.V(next)) == epoch+1 {
		entry |= 1 << (t.Bits - 2)
	}
	return entry
}

// Checksum returns an FNV-1a hash of the table's geometry and of the
// merged transpose it answers from. Tests use it to assert that tables
// shared across concurrent sweep cells are never written after
// construction.
func (t *Table) Checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range []uint64{
		uint64(t.Kind), uint64(t.Bits), uint64(t.NumLines), uint64(t.ElemsPerLine),
		uint64(t.NumEpochs), uint64(t.EpochSize), uint64(t.SubEpochs), uint64(t.SubEpochSize),
		uint64(t.numVertices), t.refs.Checksum(),
	} {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// EpochOf maps an outer-loop vertex to its epoch. The division by the
// runtime epoch size runs on the precomputed fastdiv reciprocal.
//
//popt:hot
func (t *Table) EpochOf(v graph.V) int {
	e := int(t.epochDiv.Div(uint64(v)))
	if e >= t.NumEpochs {
		e = t.NumEpochs - 1
	}
	return e
}

// NextRef implements Algorithm 2: given a cache line of the array and the
// outer-loop vertex currently being processed, return the distance (in
// epochs) to the line's next reference. 0 means "again within this epoch";
// MaxDist()+1 saturates "no known future use". The answer is the one
// Algorithm 2 decodes from the current and next columns of the encoded
// matrix, computed from one lookup into the line's reference list.
//
//popt:hot
func (m *Matrix) NextRef(line int, cur graph.V) int {
	m.Queries++
	e := m.EpochOf(cur)
	start, end := m.epochBounds(e)
	// The intra encodings keep only the sub-epoch of a line's final access
	// in the epoch, so "referenced again this epoch" means referenced at or
	// after the start of cur's sub-epoch. Past the last vertex that start
	// can lie beyond the epoch; clamp it to the epoch's end.
	s0 := start + int(m.subDiv.Div(uint64(int(cur)-start)))*m.SubEpochSize
	if s0 > end {
		s0 = end
	}
	seg, cursor := m.refs.line(line), &m.cursor[line]
	i := seek(seg, int(*cursor), graph.V(s0))
	*cursor = uint32(i)
	prev, next := m.around(seg, i)
	if next >= 0 && next < end {
		return 0
	}
	if prev < start {
		// Not referenced this epoch: the distance to the next one that is.
		return m.dist(e, next)
	}
	// Referenced this epoch, and cur is past the final access.
	switch m.Kind {
	case InterOnly:
		// No intra-epoch information: the entry reads 0 for the whole
		// epoch, even after the line's final access.
		return 0
	case SingleEpoch:
		// Only one bit of lookahead survives the footprint reduction.
		// Beyond the next epoch the distance is unknown; report the
		// coarsest non-adjacent guess. This is P-OPT-SE's quality loss.
		if next >= 0 && m.EpochOf(graph.V(next)) == e+1 {
			return 1
		}
		return 2
	}
	if e+1 >= m.NumEpochs {
		return m.MaxDist() + 1
	}
	return 1 + m.dist(e+1, next)
}

// ColumnBytes returns the storage of one epoch column, the unit streamed
// into the LLC at epoch boundaries.
func (t *Table) ColumnBytes() int { return (t.NumLines*int(t.Bits) + 7) / 8 }

// ResidentColumns returns how many columns P-OPT pins in the LLC for this
// encoding: current+next normally, current only for single-epoch.
func (t *Table) ResidentColumns() int {
	if t.Kind == SingleEpoch {
		return 1
	}
	return 2
}

// ResidentBytes returns the LLC footprint of the pinned columns.
func (t *Table) ResidentBytes() int { return t.ResidentColumns() * t.ColumnBytes() }

// TotalBytes returns the full Rereference Matrix size in the paper's
// memory: NumLines × NumEpochs entries of Bits each.
func (t *Table) TotalBytes() int { return (t.NumLines*t.NumEpochs*int(t.Bits) + 7) / 8 }
