package bench

import (
	"fmt"

	"popt/internal/cache"
	"popt/internal/core"
	"popt/internal/graph"
	"popt/internal/kernels"
	"popt/internal/mem"
	"popt/internal/sched"
	"popt/internal/trace"
)

// GRASPSetup configures GRASP to protect the high-degree prefix of the
// first irregular array (the input must be DBG-reordered for this to mean
// anything, exactly GRASP's requirement). The hot region is sized to half
// the LLC and the warm region to another half, following GRASP's pinned /
// intermediate region split.
func GRASPSetup() Setup {
	return Setup{Name: "GRASP", Make: func(_ Config, w *kernels.Workload, cfg cache.Config) (cache.Policy, core.VertexIndexed, int) {
		arr := w.Irregular[0]
		hot := uint64(cfg.LLCSize) / 2
		if hot > arr.SizeBytes() {
			hot = arr.SizeBytes()
		}
		warm := hot + uint64(cfg.LLCSize)/2
		if warm > arr.SizeBytes() {
			warm = arr.SizeBytes()
		}
		return cache.NewGRASP(arr.Base, arr.Base+hot, arr.Base+warm), nil, 0
	}}
}

// Fig12a reproduces Figure 12a: GRASP vs P-OPT (and T-OPT) on
// DBG-reordered graphs, PageRank, miss reduction over DRRIP. Paper: GRASP
// only helps on skewed graphs; P-OPT is structure-agnostic and wins
// everywhere.
func Fig12a(c Config) *Report {
	setups := []Setup{GRASPSetup(), POPTSetup(core.InterIntra, 8, true), TOPTSetup()}
	rep := &Report{
		ID: "fig12a", Title: "GRASP vs P-OPT on DBG-ordered graphs (PageRank, miss reduction over DRRIP)",
		Notes:  []string{"All runs, including the DRRIP baseline, use DBG-reordered inputs (GRASP's requirement)."},
		Header: append([]string{"graph"}, setupNames(setups)...),
	}
	// One cell per graph: the DBG reorder is preprocessing the cell owns,
	// and its output graph stays private to the cell's four runs.
	suite := c.Suite()
	type cellOut struct {
		base Result
		res  []Result
	}
	results := make([]cellOut, len(suite))
	cells := make([]Cell, len(suite))
	for gi, g0 := range suite {
		cells[gi] = Cell{
			Key: "fig12a/" + g0.Name,
			Run: func() {
				g := graph.DBG(g0).Apply(g0)
				out := &results[gi]
				// The reordered graph is cell-private: the DRRIP baseline
				// records its stream, the compared setups replay it.
				rs := c.runSetups(g, "PR", func() *kernels.Workload { return kernels.NewPageRank(g) },
					append([]Setup{DRRIPSetup()}, setups...)...)
				out.base, out.res = rs[0], rs[1:]
			},
		}
	}
	c.runCells(cells)
	for gi, g0 := range suite {
		row := []string{g0.Name}
		for _, res := range results[gi].res {
			row = append(row, pct(MissReduction(results[gi].base, res)))
		}
		rep.AddRow(row...)
	}
	return rep
}

// Fig12b reproduces Figure 12b: HATS-BDFS (zero-overhead bounded-DFS
// vertex scheduling under DRRIP) vs P-OPT on the standard vertex order.
// Paper: BDFS helps only community-structured inputs and can hurt others;
// P-OPT improves consistently.
func Fig12b(c Config) *Report {
	rep := &Report{
		ID: "fig12b", Title: "HATS-BDFS vs P-OPT (PageRank, LLC miss reduction over vertex-ordered DRRIP)",
		Notes: []string{
			"BDFS is idealized: scheduling itself costs nothing, as in the paper's aggressive variant.",
			"UK-hidden is the community graph with scrambled IDs — HATS's target case, where the",
			"vertex order hides the community structure BDFS can rediscover. Our suite's UK is",
			"already community-ordered (like a crawl), so BDFS has nothing to recover there.",
			"Divergence: the paper's BDFS wins on its real crawl inputs (UK-02/ARAB); on our",
			"synthetic communities the destination-side traffic BDFS randomizes outweighs the",
			"source-side locality it finds, so BDFS never goes positive here. The structural",
			"conclusion — BDFS is input-sensitive, P-OPT is consistently positive — reproduces.",
		},
		Header: []string{"graph", "HATS-BDFS", "P-OPT", "T-OPT"},
	}
	suite := c.Suite()
	// HATS's showcase input: community structure invisible to the ID order.
	hidden := graph.Scramble(suite[1], c.Seed+99).Renamed("UK-hidden")
	graphs := append(suite, hidden)
	// One cell per graph, BDFS-order preprocessing included.
	type cellOut struct{ base, bdfs, popt, topt Result }
	results := make([]cellOut, len(graphs))
	cells := make([]Cell, len(graphs))
	for gi, g := range graphs {
		cells[gi] = Cell{
			Key: "fig12b/" + g.Name,
			Run: func() {
				order := sched.BDFSOrder(g, 16)
				// base/popt/topt share the vertex-ordered stream; BDFS runs
				// a different schedule, hence a different stream, live.
				rs := c.runSetups(g, "PR", func() *kernels.Workload { return kernels.NewPageRank(g) },
					DRRIPSetup(), POPTSetup(core.InterIntra, 8, true), TOPTSetup())
				results[gi] = cellOut{
					base: rs[0],
					bdfs: RunWorkload(c, kernels.NewPageRankOrdered(g, order), DRRIPSetup()),
					popt: rs[1],
					topt: rs[2],
				}
			},
		}
	}
	c.runCells(cells)
	for gi, g := range graphs {
		out := results[gi]
		rep.AddRow(g.Name, pct(MissReduction(out.base, out.bdfs)), pct(MissReduction(out.base, out.popt)), pct(MissReduction(out.base, out.topt)))
	}
	return rep
}

// Fig13 reproduces Figure 13: CSR-segmenting (tiling) composed with DRRIP
// and with P-OPT across tile counts, LLC misses normalized to the untiled
// DRRIP run. Paper: tiling shrinks P-OPT's pinned column (fewer reserved
// ways) and P-OPT reaches a given miss level with far fewer tiles.
func Fig13(c Config) *Report {
	rep := &Report{
		ID: "fig13", Title: "Tiling interaction: LLC misses normalized to untiled DRRIP (lower is better)",
		Notes:  []string{"Paper: P-OPT with 2 tiles matches DRRIP with 10 on URAND."},
		Header: []string{"graph", "tiles", "DRRIP", "P-OPT", "P-OPT ways"},
	}
	suite := c.Suite()
	graphs := []*graph.Graph{suite[3], suite[1]} // URAND-like and UK-like, per the paper's two large graphs
	tileCounts := []int{1, 2, 4, 8, 16}
	// Per graph: one untiled-baseline cell plus a cell per tile count (the
	// CSR segmentation is cell-private preprocessing). Assembly normalizes
	// every tiled run against the untiled baseline afterwards.
	untiled := make([]Result, len(graphs))
	type cellOut struct{ drrip, popt Result }
	results := make([][]cellOut, len(graphs))
	var cells []Cell
	for gi, g := range graphs {
		results[gi] = make([]cellOut, len(tileCounts))
		cells = append(cells, Cell{
			Key: "fig13/" + g.Name + "/untiled",
			Run: func() { untiled[gi] = RunWorkload(c, kernels.NewPageRank(g), DRRIPSetup()) },
		})
		for ti, tiles := range tileCounts {
			cells = append(cells, Cell{
				Key: fmt.Sprintf("fig13/%s/tiles=%d", g.Name, tiles),
				Run: func() {
					seg := graph.Segment(g, tiles)
					poptSetup := Setup{Name: "P-OPT", Make: func(_ Config, w *kernels.Workload, cfg cache.Config) (cache.Policy, core.VertexIndexed, int) {
						tp := core.NewTiledPOPT(seg, w.Irregular[0], core.InterIntra, 8)
						return tp, tp, tp.ReservedWays(cfg.LLCSize / (cfg.LLCWays * 64))
					}}
					// The segmentation is cell-private; DRRIP records the
					// tiled stream and P-OPT replays it.
					rs := c.runSetups(g, fmt.Sprintf("PR-tiled-%d", tiles), func() *kernels.Workload { return kernels.NewPageRankTiled(g, seg) },
						DRRIPSetup(), poptSetup)
					results[gi][ti] = cellOut{drrip: rs[0], popt: rs[1]}
				},
			})
		}
	}
	c.runCells(cells)
	for gi, g := range graphs {
		base := float64(untiled[gi].H.LLC.Stats.Misses)
		for ti, tiles := range tileCounts {
			out := results[gi][ti]
			rep.AddRow(g.Name, fmt.Sprintf("%d", tiles),
				f2(float64(out.drrip.H.LLC.Stats.Misses)/base),
				f2(float64(out.popt.H.LLC.Stats.Misses)/base),
				fmt.Sprintf("%d", out.popt.Reserved))
		}
	}
	return rep
}

// Fig14 reproduces Figure 14: the update (binning) phase under software
// Propagation Blocking and PHI-style in-cache aggregation, composed with
// DRRIP and with P-OPT. Metric: DRAM traffic per edge (reads+writes),
// which is what PB/PHI optimize. Paper: PHI beats PB on power-law inputs
// but offers little on URAND/HBUBL-like graphs, where P-OPT still helps.
func Fig14(c Config) *Report {
	c = c.withArtifacts()
	rep := &Report{
		ID: "fig14", Title: "Update phase: DRAM transfers per edge (lower is better)",
		Notes: []string{
			"PB = software binning; PHI = in-cache commutative update aggregation over direct scatter.",
			"P-OPT manages dstData for the PHI/scatter rows; binning's traffic is write-sequential already.",
		},
		Header: []string{"graph", "PB+DRRIP", "PB+P-OPT", "PHI+DRRIP", "PHI+P-OPT", "PHI coalesce"},
	}
	// One cell per (graph, phase variant): PB and PHI, each cell running
	// the DRRIP and P-OPT seats (runUpdatePair). The serial loop reported
	// the coalesce rate of the PHI+P-OPT run; assembly reads that slot's
	// value to keep the report byte-identical.
	suite := c.Suite()
	type cellOut struct {
		traffic  float64
		coalesce float64
	}
	results := make([][4]cellOut, len(suite))
	var cells []Cell
	variants := []struct {
		label string
		phi   bool
	}{
		{"PB", false},
		{"PHI", true},
	}
	for gi, g := range suite {
		for vi, v := range variants {
			cells = append(cells, Cell{
				Key: "fig14/" + g.Name + "/" + v.label,
				Run: func() {
					mk := func() *sched.UpdatePhase {
						if v.phi {
							return sched.NewScatterPhase(g, false)
						}
						return sched.NewBinningPhase(g, 16)
					}
					base, popt := &results[gi][2*vi], &results[gi][2*vi+1]
					base.traffic, popt.traffic = runUpdatePair(c, mk, g, v.phi, &popt.coalesce)
				},
			})
		}
	}
	c.runCells(cells)
	for gi, g := range suite {
		m := float64(g.NumEdges())
		row := []string{g.Name}
		for vi := range variants {
			row = append(row, f2(results[gi][vi].traffic/m))
		}
		row = append(row, fmt.Sprintf("%.0f%%", 100*results[gi][3].coalesce))
		rep.AddRow(row...)
	}
	return rep
}

// updateRun is one built update-phase simulation: the hierarchy, its live
// sink, and (for PHI variants) the coalescing buffer wired in as the
// sink's access filter.
type updateRun struct {
	h   *cache.Hierarchy
	sim *trace.Sim
	phi *sched.PHIBuffer
}

// buildUpdateRun assembles the stack for one update-phase variant. dst is
// the phase's destination array (nil for binning phases, whose traffic is
// write-sequential and needs no irregular management); phiBuf adds PHI's
// private-cache-sized aggregation buffer.
func buildUpdateRun(c Config, g *graph.Graph, dst *mem.Array, usePOPT, phiBuf bool) updateRun {
	var pol cache.Policy
	cfg := c.cacheConfig(func() cache.Policy { return pol })
	var hook core.VertexIndexed
	reserve := 0
	if usePOPT && dst != nil {
		p := c.buildPOPT(&g.In, g.NumVertices(), core.InterIntra, 8, dst)
		pol, hook = p, p
		reserve = p.ReservedWays(cfg.LLCSize / (cfg.LLCWays * 64))
	} else {
		// Without an irregular stream P-OPT defers to its tie-breaker, so
		// both seats run DRRIP.
		pol = cache.NewDRRIP(1)
	}
	h := cache.NewHierarchy(cfg)
	if reserve > 0 && reserve < cfg.LLCWays {
		h.LLC.Reserve(reserve)
	}
	u := updateRun{h: h, sim: trace.NewSim(h, hook)}
	if phiBuf {
		// PHI's aggregation buffer is private-cache sized (the L2 here).
		u.phi = sched.NewPHIBuffer(h, dst, cfg.L2Size/64)
		u.sim.Filter = u.phi.Filter
	}
	return u
}

// finish flushes the PHI buffer (if any) and returns total DRAM traffic.
func (u updateRun) finish(coalesce *float64) float64 {
	if u.phi != nil {
		u.phi.Flush()
		if coalesce != nil {
			*coalesce = u.phi.CoalesceRate()
		}
	}
	return float64(u.h.DRAMReads + u.h.DRAMWrites)
}

// runUpdatePair simulates one update phase under DRRIP and under P-OPT,
// each seat live on its own fresh phase execution.
func runUpdatePair(c Config, mk func() *sched.UpdatePhase, g *graph.Graph, phiBuf bool, coalesce *float64) (baseTraffic, poptTraffic float64) {
	phase := mk()
	base := buildUpdateRun(c, g, phase.DstData, false, phiBuf)
	phase.Run(kernels.NewSinkRunner(base.sim))
	p2 := mk()
	popt := buildUpdateRun(c, g, p2.DstData, true, phiBuf)
	p2.Run(kernels.NewSinkRunner(popt.sim))
	return base.finish(nil), popt.finish(coalesce)
}
