package bench

import (
	"testing"

	"popt/internal/core"
	"popt/internal/graph"
	"popt/internal/mem"
)

// TestMemStatsAnalyticSizes pins the -memstats analytic formulas to the
// real artifacts they describe. A Rereference Matrix table at any width
// holds exactly the merged transpose the linerefs column claims, never the
// dense matrix, and the reref column is the size of that dense matrix as
// Encode lays it out.
func TestMemStatsAnalyticSizes(t *testing.T) {
	for _, g := range graph.Suite(graph.ScaleTiny, 42) {
		n := g.NumVertices()
		epl := mem.LineSize / 4
		lr := core.BuildLineRefs(&g.In, epl)
		if got, want := lr.MemBytes(), lineRefsBytes(n, g.NumEdges()); got != want {
			t.Errorf("%s: LineRefs.MemBytes() = %d, analytic %d", g.Name, got, want)
		}
		for _, bits := range []uint{4, 8, 16} {
			tab := core.NewTable(lr, n, epl, core.InterIntra, bits)
			if got, want := tab.MemBytes(), lineRefsBytes(n, g.NumEdges()); got != want {
				t.Errorf("%s: %d-bit Table.MemBytes() = %d, want the merged transpose's %d", g.Name, bits, got, want)
			}
		}
		dense := core.NewTable(lr, n, epl, core.InterIntra, 8).Encode()
		if got, want := 2*uint64(len(dense)), rerefTableBytes(n); got != want {
			t.Errorf("%s: encoded matrix is %d bytes, analytic %d", g.Name, got, want)
		}
	}
}

// TestMemStatsReport sanity-checks the report itself: one row per suite
// graph plus a TOTAL, and each adjacency cell is the CSR size of both
// directions, 8(n+1)+4m bytes each.
func TestMemStatsReport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = graph.ScaleTiny
	rep := MemStats(cfg)
	suite := graph.Suite(graph.ScaleTiny, cfg.Seed)
	if want := len(suite) + 1; len(rep.Rows) != want {
		t.Fatalf("report has %d rows, want %d", len(rep.Rows), want)
	}
	var total uint64
	for i, g := range suite {
		csr := 2 * (8*uint64(g.NumVertices()+1) + 4*uint64(g.NumEdges()))
		total += csr
		if got, want := rep.Rows[i][3], HumanBytes(csr); got != want {
			t.Errorf("%s adjacency = %q, want %q", g.Name, got, want)
		}
	}
	last := rep.Rows[len(rep.Rows)-1]
	if last[0] != "TOTAL" {
		t.Fatalf("last row is %q, want TOTAL", last[0])
	}
	if got, want := last[3], HumanBytes(total); got != want {
		t.Errorf("TOTAL adjacency = %q, want %q", got, want)
	}
}
