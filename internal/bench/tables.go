package bench

import (
	"fmt"
	"time"

	"popt/internal/core"
	"popt/internal/kernels"
	"popt/internal/perf"
)

// Table1 reports the simulated platform parameters (the paper's Table I
// plus this reproduction's scaled defaults and timing-model calibration).
func Table1(c Config) *Report {
	rep := &Report{
		ID: "table1", Title: "Simulation parameters",
		Header: []string{"component", "value"},
	}
	cfg := c.cacheConfig(nil)
	p := perf.Default()
	rep.AddRow("L1", fmt.Sprintf("%d KB, %d-way, Bit-PLRU", cfg.L1Size>>10, cfg.L1Ways))
	rep.AddRow("L2", fmt.Sprintf("%d KB, %d-way, Bit-PLRU, load-to-use %v cycles", cfg.L2Size>>10, cfg.L2Ways, p.L2Latency))
	rep.AddRow("LLC", fmt.Sprintf("%d KB, %d-way, DRRIP baseline, load-to-use %v cycles", cfg.LLCSize>>10, cfg.LLCWays, p.LLCLatency))
	rep.AddRow("DRAM", fmt.Sprintf("%.0f ns base latency (%.0f cycles at %.3f GHz)", p.DRAMLatencyNs, p.DRAMCycles(), p.FreqGHz))
	rep.AddRow("core model", fmt.Sprintf("base IPC %.1f, effective MLP %.0f (calibrated to the paper's 60-80%% DRAM-bound regime)", p.BaseIPC, p.MLP))
	rep.AddRow("streaming engine", fmt.Sprintf("%.0f B/cycle for Rereference Matrix columns", p.StreamBytesPerCycle))
	rep.AddRow("line size", "64 B")
	return rep
}

// Table2 reports the application properties (the paper's Table II),
// derived from the live workload metadata rather than hardcoded.
func Table2(c Config) *Report {
	rep := &Report{
		ID: "table2", Title: "Applications",
		Header: []string{"app", "irregData elems", "execution style", "transpose", "uses frontier"},
	}
	g := c.Suite()[0]
	for _, b := range kernels.All() {
		w := b.New(g)
		elems := ""
		for i, a := range w.Irregular {
			if i > 0 {
				elems += " & "
			}
			if a.ElemBits >= 8 {
				elems += fmt.Sprintf("%dB", a.ElemBits/8)
			} else {
				elems += fmt.Sprintf("%dbit", a.ElemBits)
			}
		}
		style, transpose := "Push", "CSC"
		if w.Pull {
			style, transpose = "Pull", "CSR"
		}
		if w.UsesFrontier {
			style += "-mostly"
		} else {
			style += "-only"
		}
		frontier := "N"
		if w.UsesFrontier {
			frontier = "Y"
		}
		rep.AddRow(w.Name, elems, style, transpose, frontier)
	}
	return rep
}

// Table3 reports the input graph suite (the paper's Table III), generated
// at the configured scale.
func Table3(c Config) *Report {
	rep := &Report{
		ID: "table3", Title: "Input graphs (synthetic stand-ins; see DESIGN.md for the substitution)",
		Header: []string{"graph", "vertices", "edges", "avg degree", "max out-degree"},
	}
	for _, g := range c.Suite() {
		maxDeg, _ := g.MaxDegree()
		rep.AddRow(g.Name,
			fmt.Sprintf("%d", g.NumVertices()),
			fmt.Sprintf("%d", g.NumEdges()),
			fmt.Sprintf("%.1f", g.AvgDegree()),
			fmt.Sprintf("%d", maxDeg))
	}
	return rep
}

// Table4 reproduces Table IV: wall-clock time to build the Rereference
// Matrix versus a PageRank execution on the same machine. The paper
// measures ~19.8% of PageRank runtime on average. Both measurements here
// are real (uninstrumented) executions on the host.
func Table4(c Config) *Report {
	rep := &Report{
		ID: "table4", Title: "Rereference Matrix preprocessing cost (host wall-clock)",
		Notes:  []string{"Paper: preprocessing averages 19.8% of PageRank runtime and amortizes across kernels on the same graph."},
		Header: []string{"graph", "matrix build", "PageRank run", "ratio"},
	}
	var ratioSum float64
	for _, g := range c.Suite() {
		w := kernels.NewPageRank(g)

		// The paper's preprocessing: one dense matrix per distinct line
		// geometry among the irregular arrays, as core.BuildPOPT shares
		// them. Simulation never encodes the matrix; this is the only
		// place outside the tests that does.
		t0 := time.Now() //lint:allow determinism (Table IV reports host wall-clock build cost by design)
		encoded := make(map[int]bool)
		for _, arr := range w.Irregular {
			if epl := arr.ElemsPerLine(); !encoded[epl] {
				encoded[epl] = true
				core.BuildTable(w.RefAdj, w.G.NumVertices(), epl, core.InterIntra, 8).Encode()
			}
		}
		build := time.Since(t0)

		// The paper's Table IV baseline is a full PageRank execution (run
		// to convergence), not the short simulated sample.
		t1 := time.Now() //lint:allow determinism (Table IV reports host wall-clock runtime by design)
		iters := kernels.ConvergedPageRank(g, 1e-9, 50)
		prTime := time.Since(t1)
		_ = iters

		ratio := float64(build) / float64(prTime)
		ratioSum += ratio
		rep.AddRow(g.Name, build.Round(time.Microsecond).String(), prTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f%%", 100*ratio))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("Mean build/PR ratio: %.1f%%", 100*ratioSum/float64(len(c.Suite()))))
	return rep
}
