package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"popt/internal/graph"
	"popt/internal/mem"
)

// decodeAlgorithm2 is the paper's Algorithm 2 over the dense encoded
// matrix (Table.Encode): it reads the current epoch's column and, past
// the line's final access, the next one. It divides plainly rather than
// through the table's fastdiv reciprocals. It is the reference decoder the
// on-demand Matrix.NextRef must agree with.
func decodeAlgorithm2(t *Table, entries []uint16, line int, cur graph.V) int {
	e := int(cur) / t.EpochSize
	if e >= t.NumEpochs {
		e = t.NumEpochs - 1
	}
	curr := entries[line*t.NumEpochs+e]
	msbMask := uint16(1) << (t.Bits - 1)
	lowMask := msbMask - 1
	if t.Kind == InterOnly {
		return int(curr)
	}
	if curr&msbMask != 0 {
		return int(curr & lowMask)
	}
	lastSub := int(curr & lowMask)
	if t.Kind == SingleEpoch {
		lastSub = int(curr & (1<<(t.Bits-2) - 1))
	}
	if (int(cur)-e*t.EpochSize)/t.SubEpochSize <= lastSub {
		return 0
	}
	if t.Kind == SingleEpoch {
		if curr&(1<<(t.Bits-2)) != 0 {
			return 1
		}
		return 2
	}
	if e+1 >= t.NumEpochs {
		return t.MaxDist() + 1
	}
	next := entries[line*t.NumEpochs+e+1]
	if next&msbMask != 0 {
		return 1 + int(next&lowMask)
	}
	return 1
}

// oracleGraphs are the generator shapes the on-demand property test runs
// over: the paper's 5-vertex example plus one small graph per generator.
func oracleGraphs() []*graph.Graph {
	return []*graph.Graph{
		fig1Graph(),
		graph.Kron(9, 8, 3),
		graph.Uniform(160, 1280, 5),
		graph.PowerLaw(160, 8, 2.0, 7),
		graph.Mesh(10, 16),
	}
}

// TestNextRefMatchesEncodedMatrix is the oracle for the on-demand
// Rereference Matrix: for every generator shape, encoding, width, line
// geometry and outer-loop trip count, every Entry equals the dense
// Encode() cell, and NextRef equals Algorithm 2 decoded from the dense
// matrix for every line at every position — ascending past the last
// vertex, then descending, then a quarter as many queries again in a
// seeded random order on the same Matrix, so the per-line cursors move
// forward, backward and at random.
func TestNextRefMatchesEncodedMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	widths := []uint{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	if raceEnabled {
		widths = []uint{4, 5, 8, 16}
	}
	for _, g := range oracleGraphs() {
		n := g.NumVertices()
		for _, epl := range []int{1, 3, 16, 512} {
			lr := BuildLineRefs(&g.Out, epl)
			for _, nv := range []int{n, n / 2, 2*n/3 + 1} {
				for _, kind := range []Kind{InterOnly, InterIntra, SingleEpoch} {
					for _, bits := range widths {
						if kind == SingleEpoch && bits < 5 {
							continue
						}
						name := fmt.Sprintf("%s/epl=%d/nv=%d/%s/%db", g.Name, epl, nv, kind, bits)
						checkOnDemand(t, name, NewTable(lr, nv, epl, kind, bits), rng)
					}
				}
			}
		}
	}
}

func checkOnDemand(t *testing.T, name string, tab *Table, rng *rand.Rand) {
	t.Helper()
	entries := tab.Encode()
	for line := 0; line < tab.NumLines; line++ {
		for e := 0; e < tab.NumEpochs; e++ {
			if got, want := tab.Entry(line, e), entries[line*tab.NumEpochs+e]; got != want {
				t.Fatalf("%s: Entry(%d, %d) = %#x, encoded %#x", name, line, e, got, want)
			}
		}
	}
	m := tab.NewMatrix()
	last := tab.numVertices + 2*tab.EpochSize
	check := func(order string, line, cur int) {
		if got, want := m.NextRef(line, graph.V(cur)), decodeAlgorithm2(tab, entries, line, graph.V(cur)); got != want {
			t.Fatalf("%s: %s NextRef(%d, %d) = %d, Algorithm 2 decodes %d", name, order, line, cur, got, want)
		}
	}
	for line := 0; line < tab.NumLines; line++ {
		for cur := 0; cur <= last; cur++ {
			check("ascending", line, cur)
		}
		for cur := last; cur >= 0; cur-- {
			check("descending", line, cur)
		}
	}
	for q := 0; q < tab.NumLines*(last+1)/4; q++ {
		check("random", rng.Intn(tab.NumLines), rng.Intn(last+1))
	}
}

// TestSeekMatchesBinarySearch drives seek from arbitrary cursors: the
// result must be the plain lower bound whatever the cursor.
func TestSeekMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		seg := make([]graph.V, rng.Intn(40))
		for i := range seg {
			seg[i] = graph.V(rng.Intn(64))
		}
		graph.SortV(seg)
		c := 0
		for q := 0; q < 20; q++ {
			x := graph.V(rng.Intn(70))
			want := sort.Search(len(seg), func(i int) bool { return seg[i] >= x })
			if got := seek(seg, c, x); got != want {
				t.Fatalf("seek(%v, %d, %d) = %d, want %d", seg, c, x, got, want)
			}
			c = want
		}
	}
}

// TestTOPTCursorRandomOrder queries T-OPT's cursored next references in a
// seeded random order of (line, position) and checks each against a plain
// binary search over the line's merged reference list.
func TestTOPTCursorRandomOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, g := range oracleGraphs() {
		for _, epl := range []int{1, 16} {
			sp := mem.NewSpace()
			arr := sp.AllocBytes("srcData", g.NumVertices(), uint64(mem.LineSize/epl), true)
			p := BuildTOPT(&g.Out, arr)
			s := &p.streams[0]
			n := g.NumVertices()
			for q := 0; q < 20000; q++ {
				line := rng.Intn(s.LR.numLines())
				p.UpdateIndex(graph.V(rng.Intn(n + 2)))
				seg := s.LR.line(line)
				want := int64(infDist)
				if i := sort.Search(len(seg), func(i int) bool { return seg[i] > p.cur }); i < len(seg) {
					want = int64(seg[i]) - int64(p.cur)
				}
				if got := p.nextRef(s, arr.Addr(line*epl)); got != want {
					t.Fatalf("%s epl=%d: nextRef(line %d, cur %d) = %d, want %d", g.Name, epl, line, p.cur, got, want)
				}
			}
		}
	}
}
