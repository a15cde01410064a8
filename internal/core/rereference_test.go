package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"popt/internal/graph"
	"popt/internal/mem"
)

// fig1Graph is the 5-vertex example from Figures 1-5 of the paper.
func fig1Graph() *graph.Graph {
	edges := []graph.Edge{
		{Src: 0, Dst: 2},
		{Src: 1, Dst: 0}, {Src: 1, Dst: 4},
		{Src: 2, Dst: 0}, {Src: 2, Dst: 1}, {Src: 2, Dst: 3},
		{Src: 3, Dst: 1}, {Src: 3, Dst: 4},
		{Src: 4, Dst: 0}, {Src: 4, Dst: 2},
	}
	return graph.FromEdges("fig1", 5, edges)
}

// buildFig5Matrix reproduces Figure 5's setting: one srcData element per
// cache line (elemsPerLine=1), three epochs of two vertices each. We force
// that epoch geometry by hand.
func buildFig5Matrix(kind Kind) *Matrix {
	g := fig1Graph()
	// 4-bit quantization on 5 vertices yields epochSize 1; Figure 5 uses
	// epochSize 2 (3 epochs), so pin that geometry explicitly.
	return rebuildWithEpochSize(&g.Out, 5, 1, kind, 4, 2)
}

// rebuildWithEpochSize is a test helper that builds a matrix with a pinned
// epoch size (the public builder derives epoch size from the quantization
// width).
func rebuildWithEpochSize(ref *graph.Adj, numVertices, epl int, kind Kind, bits uint, epochSize int) *Matrix {
	return newTable(BuildLineRefs(ref, epl), numVertices, epl, kind, bits, epochSize).NewMatrix()
}

// newTestSpace shortens mem.NewSpace in tests.
func newTestSpace() *mem.Space { return mem.NewSpace() }

func TestFig5InterOnlyMatrix(t *testing.T) {
	m := buildFig5Matrix(InterOnly)
	// Figure 5's Rereference Matrix (M = sentinel = MaxDist):
	//        E0 E1 E2
	//   C0 [  1  0  M ]   (S0 referenced only at D2)
	//   C1 [  0  2  0 ]   (S1 at D0 and D4)
	//   C2 [  0  0  0 ]   (S2 at D0, D1, D3)
	//   C3 [  0  1  0 ]   (S3 at D1 and D4)
	//   C4 [  1  1  0 ]   (S4 at D2 and D4... D2 is epoch 1, D4 epoch 2)
	M := uint16(m.MaxDist())
	want := [][]uint16{
		{1, 0, M},
		{0, 2, 0},
		{0, 0, 0},
		{0, 1, 0},
		{1, 0, 1},
	}
	// S4's out-neighbors are D0 and D2 (edges 4->0, 4->2): epoch 0 and 1.
	want[4] = []uint16{0, 0, M}
	// Recompute expectations directly from the graph to avoid hand errors:
	g := fig1Graph()
	for line := 0; line < 5; line++ {
		for e := 0; e < 3; e++ {
			// next referencing epoch >= e for vertex `line`
			dist := int(M)
			for _, d := range g.Out.Neighs(graph.V(line)) {
				de := int(d) / 2
				if de >= e {
					if dd := de - e; dd < dist {
						dist = dd
					}
				}
			}
			want[line][e] = uint16(dist)
		}
	}
	for line := range want {
		for e := range want[line] {
			if got := m.Entry(line, e); got != want[line][e] {
				t.Errorf("entry[C%d][E%d] = %d, want %d", line, e, got, want[line][e])
			}
		}
	}
	// Spot-check the three values the paper calls out for C0 (S0, whose
	// only reference is at D2 in epoch 1): 1 at E0, 0 at E1, M at E2.
	if m.Entry(0, 0) != 1 || m.Entry(0, 1) != 0 || m.Entry(0, 2) != M {
		t.Errorf("C0 row = [%d %d %d], want [1 0 %d]", m.Entry(0, 0), m.Entry(0, 1), m.Entry(0, 2), M)
	}
}

func TestInterIntraEncodingFields(t *testing.T) {
	m := buildFig5Matrix(InterIntra)
	msb := uint16(1) << 3 // 4-bit entries
	// S0 (line 0) is referenced at D2 only (epoch 1).
	// E0: not referenced -> MSB set, distance 1.
	if got := m.Entry(0, 0); got != msb|1 {
		t.Errorf("C0E0 = %#x, want MSB|1", got)
	}
	// E1: referenced -> MSB clear, low bits = final-access sub-epoch.
	if got := m.Entry(0, 1); got&msb != 0 {
		t.Errorf("C0E1 = %#x, want MSB clear", got)
	}
	// E2: never referenced again -> MSB set, sentinel distance.
	if got := m.Entry(0, 2); got != msb|uint16(m.MaxDist()) {
		t.Errorf("C0E2 = %#x, want MSB|sentinel", got)
	}
}

func TestAlgorithm2NextRef(t *testing.T) {
	g := fig1Graph()
	m := rebuildWithEpochSize(&g.Out, 5, 1, InterIntra, 8, 2)
	// Epoch 0 = {D0,D1}, epoch 1 = {D2,D3}, epoch 2 = {D4}.
	// S1 (line 1) is referenced at D0 and D4.
	// At cur=D0 (sub-epoch of D0 <= lastSub since D0 is its last access in
	// epoch 0): distance 0.
	if got := m.NextRef(1, 0); got != 0 {
		t.Errorf("NextRef(S1, D0) = %d, want 0 (still referenced this epoch)", got)
	}
	// At cur=D1, past S1's final access in epoch 0; next epoch (1) has no
	// reference, so Algorithm 2 line 16 returns 1 + dist stored in E1.
	// S1's E1 entry: not referenced, next ref at epoch 2 -> dist 1. So 2.
	if got := m.NextRef(1, 1); got != 2 {
		t.Errorf("NextRef(S1, D1) = %d, want 2 (next use in epoch 2)", got)
	}
	// S2 (line 2) referenced at D0, D1, D3: at D1 still current (lastSub
	// covers D1): 0.
	if got := m.NextRef(2, 1); got != 0 {
		t.Errorf("NextRef(S2, D1) = %d, want 0", got)
	}
	// S0 (line 0) at D4 (epoch 2): no further use -> sentinel distance.
	if got := m.NextRef(0, 4); got < m.MaxDist() {
		t.Errorf("NextRef(S0, D4) = %d, want >= sentinel %d", got, m.MaxDist())
	}
}

func TestInterOnlyQuantizationLoss(t *testing.T) {
	// The inter-only encoding cannot see past the final access within an
	// epoch: after S1's last use at D0, it still reports 0 for cur=D1.
	g := fig1Graph()
	io := rebuildWithEpochSize(&g.Out, 5, 1, InterOnly, 8, 2)
	ii := rebuildWithEpochSize(&g.Out, 5, 1, InterIntra, 8, 2)
	if got := io.NextRef(1, 1); got != 0 {
		t.Errorf("inter-only NextRef(S1, D1) = %d, want 0 (the documented loss)", got)
	}
	if got := ii.NextRef(1, 1); got == 0 {
		t.Error("inter+intra should see past the final access in the epoch")
	}
}

func TestSingleEpochEncoding(t *testing.T) {
	g := fig1Graph()
	m := rebuildWithEpochSize(&g.Out, 5, 1, SingleEpoch, 8, 2)
	// S1 referenced at D0 (epoch 0) and D4 (epoch 2). Next-epoch bit for
	// E0 must be clear (no use in epoch 1), so past the final access the
	// best SE can say is "2".
	if got := m.NextRef(1, 1); got != 2 {
		t.Errorf("SE NextRef(S1, D1) = %d, want coarse 2", got)
	}
	// S4 referenced at D0 and D2: next-epoch bit set at E0 -> past final
	// access it reports 1.
	if got := m.NextRef(4, 1); got != 1 {
		t.Errorf("SE NextRef(S4, D1) = %d, want 1", got)
	}
	if m.ResidentColumns() != 1 {
		t.Error("single-epoch must pin one column")
	}
	if ii := rebuildWithEpochSize(&g.Out, 5, 1, InterIntra, 8, 2); ii.ResidentColumns() != 2 {
		t.Error("inter+intra must pin two columns")
	}
}

func TestMatrixGeometryDefaults(t *testing.T) {
	g := graph.Uniform(10000, 80000, 3)
	m := BuildMatrix(&g.Out, 10000, 16, InterIntra, 8)
	if m.NumEpochs > 256 {
		t.Errorf("NumEpochs = %d, want <= 256 for 8-bit", m.NumEpochs)
	}
	if m.EpochSize != (10000+255)/256 {
		t.Errorf("EpochSize = %d, want ceil(n/256)", m.EpochSize)
	}
	if m.SubEpochs != 127 {
		t.Errorf("SubEpochs = %d, want 127", m.SubEpochs)
	}
	if m.NumLines != (10000+15)/16 {
		t.Errorf("NumLines = %d", m.NumLines)
	}
	if m.ColumnBytes() != m.NumLines {
		t.Errorf("ColumnBytes = %d, want %d for 8-bit entries", m.ColumnBytes(), m.NumLines)
	}
}

func TestMatrixQuantizationWidths(t *testing.T) {
	g := graph.Uniform(4096, 32768, 5)
	for _, bits := range []uint{4, 8, 16} {
		m := BuildMatrix(&g.Out, 4096, 16, InterIntra, bits)
		if m.NumEpochs > 1<<bits {
			t.Errorf("bits=%d: NumEpochs %d exceeds 2^bits", bits, m.NumEpochs)
		}
		if m.MaxDist() != 1<<(bits-1)-1 {
			t.Errorf("bits=%d: MaxDist = %d", bits, m.MaxDist())
		}
		// Every entry must fit in `bits` bits.
		limit := 1 << int(bits)
		for line := 0; line < m.NumLines; line += 17 {
			for e := 0; e < m.NumEpochs; e++ {
				if int(m.Entry(line, e)) >= limit {
					t.Fatalf("bits=%d: entry overflow %#x", bits, m.Entry(line, e))
				}
			}
		}
	}
}

// TestNextRefAgainstOracle is the central property test: for random graphs
// and positions, the quantized next reference must agree with the exact
// transpose oracle at epoch granularity. InterIntra's value is exact when
// the oracle distance is expressed in epochs (up to saturation), except for
// the documented sub-epoch rounding inside the current epoch.
func TestNextRefAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.Uniform(2048, 16384, 21)
	n := 2048
	m := BuildMatrix(&g.Out, n, 16, InterIntra, 8)
	for trial := 0; trial < 5000; trial++ {
		line := rng.Intn(m.NumLines)
		cur := graph.V(rng.Intn(n))
		got := m.NextRef(line, cur)

		// Oracle: exact next reference over the line's vertices, plus
		// whether any reference (past or future) lands in the current
		// epoch at a sub-epoch >= cur's — in that case Algorithm 2
		// legitimately answers 0 (sub-epoch granularity; a reference at
		// cur itself keeps lastSub >= currSub).
		lo, hi := line*16, (line+1)*16
		if hi > n {
			hi = n
		}
		curEpoch := int(cur) / m.EpochSize
		currSub := (int(cur) - curEpoch*m.EpochSize) / m.SubEpochSize
		oracle := -1
		zeroAllowed := false
		for v := lo; v < hi; v++ {
			if next, ok := g.Out.NextAfter(graph.V(v), cur); ok {
				if oracle == -1 || int(next) < oracle {
					oracle = int(next)
				}
			}
			for _, d := range g.Out.Neighs(graph.V(v)) {
				if int(d)/m.EpochSize == curEpoch {
					sub := (int(d) - curEpoch*m.EpochSize) / m.SubEpochSize
					if sub >= m.SubEpochs {
						sub = m.SubEpochs - 1
					}
					if sub >= currSub {
						zeroAllowed = true
					}
				}
			}
		}
		if oracle == -1 {
			// No future use: must report at least the current-epoch
			// boundary; exact value depends on stale intra bits only when
			// a past use exists in this epoch before cur — Algorithm 2
			// handles that with the sub-epoch check, which can be off by
			// at most the sub-epoch rounding. Distances must still be
			// large unless rounding hides it.
			if got == 0 {
				// Permitted only if the final access shares cur's
				// sub-epoch (rounding).
				e := m.Entry(line, curEpoch)
				if e>>(m.Bits-1) != 0 {
					t.Fatalf("no future use but NextRef=0 with inter entry")
				}
			}
			continue
		}
		oracleEpochDist := oracle/m.EpochSize - curEpoch
		maxD := m.MaxDist()
		wantMin, wantMax := oracleEpochDist, oracleEpochDist
		if oracleEpochDist > maxD {
			wantMin, wantMax = maxD, maxD+1 // saturated
		}
		ok := got >= wantMin && got <= wantMax || got == 0 && zeroAllowed
		if !ok {
			t.Fatalf("line %d cur %d: NextRef=%d oracle epoch dist=%d (allowed [%d,%d], zeroAllowed=%v)",
				line, cur, got, oracleEpochDist, wantMin, wantMax, zeroAllowed)
		}
	}
}

// Property: rows are internally consistent — an entry with distance d>0 at
// epoch e implies the entry at epoch e+d shows a reference this epoch (for
// inter+intra encoding, MSB clear).
func TestMatrixRowConsistencyProperty(t *testing.T) {
	g := graph.Kron(11, 6, 9)
	n := g.NumVertices()
	m := BuildMatrix(&g.Out, n, 16, InterIntra, 8)
	msb := uint16(1) << 7
	f := func(lineRaw uint16, eRaw uint8) bool {
		line := int(lineRaw) % m.NumLines
		e := int(eRaw) % m.NumEpochs
		entry := m.Entry(line, e)
		if entry&msb == 0 {
			return true // referenced this epoch
		}
		d := int(entry &^ msb)
		if d == 0 || d >= m.MaxDist() || e+d >= m.NumEpochs {
			return true // sentinel or saturated
		}
		target := m.Entry(line, e+d)
		return target&msb == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestBuildPOPTAndReservedWays(t *testing.T) {
	g := graph.Uniform(1<<15, 8<<15, 2)
	sp := newTestSpace()
	src := sp.AllocBytes("srcData", g.NumVertices(), 4, true)
	fr := sp.Alloc("frontier", g.NumVertices(), 1, true)
	p := BuildPOPT(&g.Out, g.NumVertices(), InterIntra, 8, src, fr)
	// srcData: 32768 verts / 16 per line = 2048 lines -> 2048 B/column.
	// frontier: 32768 bits / 512 per line = 64 lines -> 64 B/column.
	// Two resident columns each: 2*(2048+64) = 4224 B.
	sets := 128
	want := (4224 + sets*64 - 1) / (sets * 64) // = 1
	if got := p.ReservedWays(sets); got != want {
		t.Errorf("ReservedWays(%d sets) = %d, want %d", sets, got, want)
	}
	if p.Name() != "P-OPT" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestEpochStreamAccounting(t *testing.T) {
	g := graph.Uniform(1<<12, 8<<12, 2)
	sp := newTestSpace()
	src := sp.AllocBytes("srcData", g.NumVertices(), 4, true)
	p := BuildPOPT(&g.Out, g.NumVertices(), InterIntra, 8, src)
	p.ResetEpoch()
	if p.EpochStreams != 1 {
		t.Fatalf("ResetEpoch should stream one column, got %d", p.EpochStreams)
	}
	es := p.streams[0].M.EpochSize
	p.UpdateIndex(graph.V(es)) // cross into epoch 1
	p.UpdateIndex(graph.V(es + 1))
	if p.EpochStreams != 2 {
		t.Fatalf("EpochStreams = %d, want 2 (no re-stream within epoch)", p.EpochStreams)
	}
	wantBytes := uint64(2 * p.streams[0].M.ColumnBytes())
	if p.BytesStreamed != wantBytes {
		t.Fatalf("BytesStreamed = %d, want %d", p.BytesStreamed, wantBytes)
	}
}

func TestNextRefBufferBytes(t *testing.T) {
	// The paper's worked example: 8 cores, 10 L1 MSHRs, 16-way LLC = 1.25KB.
	if got := NextRefBufferBytes(8, 10, 16); got != 1280 {
		t.Errorf("NextRefBufferBytes = %d, want 1280", got)
	}
}

func TestMatrixSharingBetweenSameGeometryStreams(t *testing.T) {
	g := graph.Uniform(1<<12, 8<<12, 2)
	sp := newTestSpace()
	a := sp.AllocBytes("a", g.NumVertices(), 4, true)
	b := sp.AllocBytes("b", g.NumVertices(), 4, true) // same elems/line as a
	fr := sp.Alloc("fr", g.NumVertices(), 1, true)    // different geometry
	p := BuildPOPT(&g.Out, g.NumVertices(), InterIntra, 8, a, b, fr)
	if p.streams[0].M != p.streams[1].M {
		t.Error("same-geometry streams must share one matrix (Section V-F)")
	}
	if p.streams[0].M == p.streams[2].M {
		t.Error("bit-vector stream cannot share the 4B stream's matrix")
	}
	// Reservation counts the shared matrix once: equal to a P-OPT with
	// only streams a and fr.
	ref := BuildPOPT(&g.Out, g.NumVertices(), InterIntra, 8, a, fr)
	if p.ReservedWays(128) != ref.ReservedWays(128) {
		t.Errorf("shared matrix double-counted: %d vs %d ways", p.ReservedWays(128), ref.ReservedWays(128))
	}
	// Epoch streaming also counts it once: 2 distinct matrices per epoch.
	p.ResetEpoch()
	if p.EpochStreams != 2 {
		t.Errorf("EpochStreams = %d, want 2 distinct columns", p.EpochStreams)
	}
}

func TestContextSwitchRefetchesColumns(t *testing.T) {
	g := graph.Uniform(1<<12, 8<<12, 2)
	sp := newTestSpace()
	a := sp.AllocBytes("a", g.NumVertices(), 4, true)
	p := BuildPOPT(&g.Out, g.NumVertices(), InterIntra, 8, a)
	p.ContextSwitch()
	want := uint64(p.streams[0].M.ResidentBytes())
	if p.BytesStreamed != want {
		t.Errorf("context switch streamed %d bytes, want resident %d", p.BytesStreamed, want)
	}
}
