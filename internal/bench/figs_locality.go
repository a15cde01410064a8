package bench

import (
	"fmt"

	"popt/internal/cache"
	"popt/internal/core"
	"popt/internal/graph"
	"popt/internal/kernels"
)

// Fig2 reproduces Figure 2: LLC MPKI for PageRank under LRU, DRRIP,
// SHiP-PC, SHiP-Mem and Hawkeye. The paper's finding: none substantially
// beats LRU; miss rates sit at 60-70%.
func Fig2(c Config) *Report {
	c = c.withArtifacts()
	setups := []Setup{LRUSetup(), DRRIPSetup(), SHiPPCSetup(), SHiPMemSetup(), HawkeyeSetup()}
	rep := &Report{
		ID: "fig2", Title: "LLC MPKI across state-of-the-art policies (PageRank); lower is better",
		Notes:  []string{"Paper: all policies land within a few percent of LRU, 60-70% miss rates."},
		Header: append([]string{"graph"}, setupNames(setups)...),
	}
	suite := c.Suite()
	results := sweepGrid(c, "fig2", suite, setups, func(g *graph.Graph, s Setup) Result {
		return c.runStream(g, "PR", kernels.NewPageRank, s)
	})
	missRates := &Report{Header: rep.Header}
	for gi, g := range suite {
		row := []string{g.Name}
		mrRow := []string{g.Name}
		for si := range setups {
			res := results[gi][si]
			row = append(row, f2(res.MPKI()))
			mrRow = append(mrRow, fmt.Sprintf("%.0f%%", 100*res.H.LLCMissRate()))
		}
		rep.AddRow(row...)
		missRates.AddRow(mrRow...)
	}
	rep.Notes = append(rep.Notes, "LLC miss rates per policy:")
	for _, r := range missRates.Rows {
		rep.Notes = append(rep.Notes, fmt.Sprintf("  %v", r))
	}
	return rep
}

// sweepGrid fans the (graph × setup) cross-product — the shape shared by
// fig2, fig4, and the base+setups drivers — across the sweep pool. Each
// cell writes only its own [gi][si] slot, so assembly in enumeration order
// is byte-identical to the serial loops at any worker count.
func sweepGrid(c Config, id string, suite []*graph.Graph, setups []Setup, run func(*graph.Graph, Setup) Result) [][]Result {
	results := make([][]Result, len(suite))
	grid := make([][]Cell, len(suite))
	for gi, g := range suite {
		results[gi] = make([]Result, len(setups))
		for si, s := range setups {
			grid[gi] = append(grid[gi], Cell{
				Key: id + "/" + g.Name + "/" + s.Name,
				Run: func() { results[gi][si] = run(g, s) },
			})
		}
	}
	c.runCells(producersFirst(grid))
	return results
}

// Fig4 reproduces Figure 4: adding the idealized T-OPT to the Figure 2
// lineup. The paper reports T-OPT cutting misses 1.67x on average vs LRU.
func Fig4(c Config) *Report {
	c = c.withArtifacts()
	setups := []Setup{LRUSetup(), DRRIPSetup(), SHiPPCSetup(), SHiPMemSetup(), HawkeyeSetup(), TOPTSetup()}
	rep := &Report{
		ID: "fig4", Title: "T-OPT vs state-of-the-art policies, PageRank LLC MPKI; lower is better",
		Notes:  []string{"Paper: T-OPT reduces misses 1.67x on average vs LRU (41% vs 60-70% miss rate)."},
		Header: append([]string{"graph"}, append(setupNames(setups), "LRU/T-OPT")...),
	}
	suite := c.Suite()
	results := sweepGrid(c, "fig4", suite, setups, func(g *graph.Graph, s Setup) Result {
		return c.runStream(g, "PR", kernels.NewPageRank, s)
	})
	var ratioSum float64
	for gi, g := range suite {
		row := []string{g.Name}
		var lruM, toptM uint64
		for si, s := range setups {
			res := results[gi][si]
			row = append(row, f2(res.MPKI()))
			switch s.Name {
			case "LRU":
				lruM = res.H.LLC.Stats.Misses
			case "T-OPT":
				toptM = res.H.LLC.Stats.Misses
			}
		}
		ratio := float64(lruM) / float64(toptM)
		ratioSum += ratio
		row = append(row, fmt.Sprintf("%.2fx", ratio))
		rep.AddRow(row...)
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("Mean LRU/T-OPT miss ratio: %.2fx", ratioSum/float64(len(suite))))
	return rep
}

// Fig7 reproduces Figure 7: LLC miss reduction relative to DRRIP for the
// two Rereference Matrix designs and idealized T-OPT, PageRank. Reserved
// ways ARE charged for the P-OPT variants (that is Figure 7's point:
// spending LLC on metadata still wins).
func Fig7(c Config) *Report {
	c = c.withArtifacts()
	setups := []Setup{
		POPTSetup(core.InterOnly, 8, true),
		POPTSetup(core.InterIntra, 8, true),
		TOPTSetup(),
	}
	rep := &Report{
		ID: "fig7", Title: "LLC miss reduction over DRRIP, PageRank; higher is better",
		Notes:  []string{"Paper: inter+intra closely tracks the zero-overhead T-OPT; inter-only trails."},
		Header: append([]string{"graph"}, setupNames(setups)...),
	}
	suite := c.Suite()
	withBase := append([]Setup{DRRIPSetup()}, setups...)
	results := sweepGrid(c, "fig7", suite, withBase, func(g *graph.Graph, s Setup) Result {
		return c.runStream(g, "PR", kernels.NewPageRank, s)
	})
	for gi, g := range suite {
		base := results[gi][0]
		row := []string{g.Name}
		for si := range setups {
			row = append(row, pct(MissReduction(base, results[gi][si+1])))
		}
		rep.AddRow(row...)
	}
	return rep
}

// Fig15 reproduces Figure 15: P-OPT at 4-, 8- and 16-bit quantization,
// limit-case (no reserved-way cost), with replacement tie rates. The paper
// reports tie rates of ~41%, ~12% and ~0%.
func Fig15(c Config) *Report {
	c = c.withArtifacts()
	setups := []Setup{
		POPTSetup(core.InterIntra, 4, false),
		POPTSetup(core.InterIntra, 8, false),
		POPTSetup(core.InterIntra, 16, false),
		TOPTSetup(),
	}
	rep := &Report{
		ID: "fig15", Title: "Quantization sensitivity: miss reduction over DRRIP (limit case, no way cost)",
		Notes:  []string{"Paper: 8-bit closely approximates T-OPT; tie rates ~41%/12%/0% for 4/8/16 bits."},
		Header: append([]string{"graph"}, append(setupNames(setups), "ties(4b)", "ties(8b)", "ties(16b)")...),
	}
	suite := c.Suite()
	withBase := append([]Setup{DRRIPSetup()}, setups...)
	results := sweepGrid(c, "fig15", suite, withBase, func(g *graph.Graph, s Setup) Result {
		return c.runStream(g, "PR", kernels.NewPageRank, s)
	})
	var tieSums [3]float64
	for gi, g := range suite {
		base := results[gi][0]
		row := []string{g.Name}
		var ties []string
		for i, s := range setups {
			res := results[gi][i+1]
			row = append(row, pct(MissReduction(base, res)))
			if s.Name != "T-OPT" {
				ties = append(ties, fmt.Sprintf("%.0f%%", 100*res.TieRate))
				tieSums[i] += res.TieRate
			}
		}
		rep.AddRow(append(row, ties...)...)
	}
	n := float64(len(suite))
	rep.Notes = append(rep.Notes, fmt.Sprintf("Mean tie rates: 4b=%.0f%% 8b=%.0f%% 16b=%.0f%%",
		100*tieSums[0]/n, 100*tieSums[1]/n, 100*tieSums[2]/n))
	return rep
}

// Fig16 reproduces Figure 16: P-OPT's miss reduction over DRRIP as LLC
// capacity and associativity scale. The paper: the benefit grows with both.
func Fig16(c Config) *Report {
	c = c.withArtifacts()
	rep := &Report{
		ID: "fig16", Title: "Sensitivity to LLC size and associativity: P-OPT miss reduction over DRRIP (PageRank)",
		Notes:  []string{"Paper: larger LLCs shrink the metadata fraction; more ways give P-OPT more candidates."},
		Header: []string{"graph", "config", "reservedWays", "missReduction"},
	}
	base := c.cacheConfig(nil)
	type variant struct {
		label string
		size  int
		ways  int
	}
	variants := []variant{
		{"0.5x-size", base.LLCSize / 2, base.LLCWays},
		{"1x-size", base.LLCSize, base.LLCWays},
		{"2x-size", base.LLCSize * 2, base.LLCWays},
		{"8-way", base.LLCSize, 8},
		{"16-way", base.LLCSize, 16},
		{"32-way", base.LLCSize, 32},
	}
	// Sensitivity sweeps use two contrasting graphs to bound runtime.
	suite := c.Suite()
	graphs := []*graph.Graph{suite[0], suite[3]} // power-law and uniform
	// One cell per (variant, setup), DRRIP first, so column 0 of each
	// graph's row is a pure producer of that graph's stream.
	setups := []Setup{DRRIPSetup(), POPTSetup(core.InterIntra, 8, true)}
	results := make([][][]Result, len(graphs))
	grid := make([][]Cell, len(graphs))
	for gi, g := range graphs {
		results[gi] = make([][]Result, len(variants))
		for vi, v := range variants {
			results[gi][vi] = make([]Result, len(setups))
			vc := c
			size, ways := v.size, v.ways
			vc.Cache = func(llc func() cache.Policy) cache.Config {
				cfg := c.cacheConfig(llc)
				cfg.LLCSize, cfg.LLCWays = size, ways
				return cfg
			}
			for si, s := range setups {
				grid[gi] = append(grid[gi], Cell{
					Key: "fig16/" + g.Name + "/" + v.label + "/" + s.Name,
					// vc shares c's artifact cache, so all cache-shape
					// variants of a graph replay one recorded stream (the
					// reference stream does not depend on the hierarchy).
					Run: func() { results[gi][vi][si] = vc.runStream(g, "PR", kernels.NewPageRank, s) },
				})
			}
		}
	}
	c.runCells(producersFirst(grid))
	for gi, g := range graphs {
		for vi, v := range variants {
			base, popt := results[gi][vi][0], results[gi][vi][1]
			rep.AddRow(g.Name, v.label, fmt.Sprintf("%d/%d", popt.Reserved, v.ways), pct(MissReduction(base, popt)))
		}
	}
	return rep
}

func setupNames(setups []Setup) []string {
	names := make([]string, len(setups))
	for i, s := range setups {
		names[i] = s.Name
	}
	return names
}
