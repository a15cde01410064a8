package bench

import (
	"fmt"

	"popt/internal/mem"
	"popt/internal/trace"
)

// MemStats reports the resident footprint of the shared artifacts a sweep
// at this config would hold: per input graph, the Out+In adjacency bytes,
// plus two analytic preprocessing sizes: the dense Rereference Matrix,
// which the paper keeps in DRAM and the simulator never allocates, and the
// merged transpose (core.LineRefs) that P-OPT and T-OPT cells share.
// The report is what -memstats prints; building it costs one suite
// construction and no simulation.
func MemStats(c Config) *Report {
	rep := &Report{
		ID:    "memstats",
		Title: fmt.Sprintf("resident bytes per shared artifact (scale %s)", c.Scale),
		Notes: []string{
			"adjacency = resident Out+In CSR bytes (8(n+1)+4m per direction);",
			"reref = the paper's DRAM Rereference Matrix at its 8-bit default, sized analytically as uint16 cells; the simulator never allocates it;",
			"linerefs = merged transpose for 4 B irregular elements (the resident P-OPT and T-OPT artifact).",
			fmt.Sprintf("Corpus replays are bounded separately: one %s chunk resident per concurrent replay.",
				HumanBytes(trace.DefaultChunkBytes)),
		},
		Header: []string{"graph", "vertices", "edges", "adjacency", "reref", "linerefs"},
	}
	var adjTotal, rrTotal, lrTotal uint64
	for _, g := range c.Suite() {
		n, m := g.NumVertices(), g.NumEdges()
		adj := g.Out.MemBytes() + g.In.MemBytes()
		rr := rerefTableBytes(n)
		lr := lineRefsBytes(n, m)
		adjTotal += adj
		rrTotal += rr
		lrTotal += lr
		rep.AddRow(g.Name,
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", m),
			HumanBytes(adj), HumanBytes(rr), HumanBytes(lr))
	}
	rep.AddRow("TOTAL", "", "", HumanBytes(adjTotal), HumanBytes(rrTotal), HumanBytes(lrTotal))
	return rep
}

// rerefTableBytes is the analytic size of the dense Rereference Matrix
// (core.Table.Encode) at the paper's 8-bit default for a 4 B-element
// irregular array: one uint16 per (cache line of the array) x (epoch),
// with min(256, n) epochs. Only Table IV's measurement builds it.
func rerefTableBytes(n int) uint64 {
	epl := mem.LineSize / 4
	lines := (n + epl - 1) / epl
	epochs := 256
	if epochs > n {
		epochs = n
	}
	return 2 * uint64(lines) * uint64(epochs)
}

// lineRefsBytes is the analytic size of core.BuildLineRefs' product for a
// 4 B-element irregular array (mem.LineSize/4 vertices per line): the
// offset array plus one 4 B reference per edge.
func lineRefsBytes(n, m int) uint64 {
	epl := mem.LineSize / 4
	lines := (n + epl - 1) / epl
	return 8*uint64(lines+1) + 4*uint64(m)
}

// HumanBytes renders a byte count in binary units with two significant
// decimals, the form popttrace info and -memstats print.
func HumanBytes(b uint64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := uint64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.2f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}
