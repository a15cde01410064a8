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
// graph plus a TOTAL, and a compact-layout report must show a ratio
// above 1 while plain shows exactly the plain-equivalent bytes.
func TestMemStatsReport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = graph.ScaleTiny
	cfg.Layout = graph.LayoutCompact
	rep := MemStats(cfg)
	if want := len(graph.Suite(graph.ScaleTiny, cfg.Seed)) + 1; len(rep.Rows) != want {
		t.Fatalf("report has %d rows, want %d", len(rep.Rows), want)
	}
	total := rep.Rows[len(rep.Rows)-1]
	if total[0] != "TOTAL" {
		t.Fatalf("last row is %q, want TOTAL", total[0])
	}
	if total[3] == total[4] {
		t.Errorf("compact TOTAL adjacency %q equals plain equivalent %q", total[3], total[4])
	}
	cfg.Layout = graph.LayoutPlain
	plain := MemStats(cfg)
	ptotal := plain.Rows[len(plain.Rows)-1]
	if ptotal[3] != ptotal[4] {
		t.Errorf("plain TOTAL adjacency %q != plain equivalent %q", ptotal[3], ptotal[4])
	}
}
