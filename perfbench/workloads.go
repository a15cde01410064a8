package main

import (
	"fmt"
	"path/filepath"

	"popt/internal/bench"
	"popt/internal/core"
	"popt/internal/corpus"
	"popt/internal/graph"
	"popt/internal/kernels"
	"popt/internal/trace"
)

// The workloads, and why each was chosen. Every one is run the way a
// poptbench user runs it — the public bench entry points with
// Workers = nproc — and re-run layer by layer in the traced pass.
//
//   - pr-zoo: fig2 at default scale, in-memory streams. PageRank is
//     recorded once per suite graph and replayed under LRU, DRRIP,
//     SHiP-PC, SHiP-Mem and Hawkeye. Time goes to the kernel record and
//     the LLC datapath; the Rereference Matrix code does no work, so this
//     is the bypass workload for any change to the next-reference engine.
//   - popt-quant: fig15's lineup (DRRIP, P-OPT at 4, 8 and 16 bits,
//     T-OPT) at default scale on the suite's KRON graph, composed from
//     bench.RecordLLC/ReplayLLC and the exported setups on bench.Sweep.
//     It is the workload of the next-reference engine: the dense 16-bit
//     table build (Table.fillLines) dominates its CPU and its peak memory.
//     The whole fig15 holds five such tables at once (~5.2 GiB, ~21 s a
//     run on 2 cores), which neither fits repeated runs on a shared
//     8 GiB host nor the run budget; one graph keeps the same per-table
//     cost at ~1.1 GiB. Its rows are fig15's rows for that graph.
//   - corpus-warm: fig2 at default scale replayed from an on-disk corpus
//     that set-up records. Publishing (the container write path) is
//     set-up; the timed pass is the read path — open, validate, chunk
//     decode — so a change to trace storage shows on both sides.
//   - tiny-all: every experiment at tiny scale. Working sets are KiB, so
//     per-cell fixed costs dominate; it is the only workload that runs
//     the non-PageRank kernels, the schedulers (PB, PHI, BDFS), tiling
//     and fig14's full pre-L1 stream.
//
// Which end-to-end metric each per-layer metric should move, and where:
//
//   - graph.build_s, graph.adj_mib: setup_s and peak_rss_mib, all.
//   - kernels.live_s, trace.record_s (minus live: the encode cost),
//     trace.llc_events, trace.bytes_per_event, kernels.instructions:
//     wall_s on pr-zoo and tiny-all.
//   - trace.replay_s, cache.llc_accesses/misses/evictions,
//     cache.ns_per_event: wall_s on pr-zoo and tiny-all.
//   - policy.victim_s, policy.victim_calls, policy.ns_per_victim: wall_s
//     on popt-quant (P-OPT/T-OPT) and pr-zoo (Hawkeye).
//   - core.*: wall_s, cpu_s and peak_rss_mib on popt-quant; zero on pr-zoo.
//   - corpus.publish_s: setup_s on corpus-warm. corpus.lookup_s,
//     trace.decode_replay_s, trace.container_mib, trace.max_resident_kib:
//     wall_s and peak_rss_mib on corpus-warm.
//   - bench.cell_s.p50/max, bench.critical_share, bench.pool_util: wall_s
//     on every workload (is the sweep's cell queue the limit?).
var workloads = []workload{
	{
		name:  "pr-zoo",
		scale: graph.ScaleDefault,
		run:   func(e *env) []*bench.Report { return []*bench.Report{experiment(e.cfg, "fig2")} },
		traced: func(e *env, l *layers) []*bench.Report {
			res := make([][]bench.Result, len(e.suite))
			for gi, g := range e.suite {
				res[gi] = l.memStream(e, g, pageRank, zooSpecs())
			}
			return []*bench.Report{renderFig2(e.suite, res)}
		},
	},
	{
		name:  "popt-quant",
		scale: graph.ScaleDefault,
		run:   func(e *env) []*bench.Report { return []*bench.Report{runQuant(e)} },
		traced: func(e *env, l *layers) []*bench.Report {
			gs := quantGraphs(e.suite)
			res := make([][]bench.Result, len(gs))
			for gi, g := range gs {
				res[gi] = l.memStream(e, g, pageRank, quantSpecs())
			}
			return []*bench.Report{renderQuant(gs, res)}
		},
	},
	{
		name:   "corpus-warm",
		scale:  graph.ScaleDefault,
		corpus: true,
		run: func(e *env) []*bench.Report {
			store, err := corpus.Open(e.corpusDir())
			if err != nil {
				panic(fmt.Sprintf("opening corpus: %v", err))
			}
			defer store.Close()
			c := e.cfg
			c.Corpus = store
			return []*bench.Report{experiment(c, "fig2")}
		},
		traced: func(e *env, l *layers) []*bench.Report {
			var store *corpus.Store
			var err error
			l.t.do("corpus.open", func() { store, err = corpus.Open(e.corpusDir()) })
			if err != nil {
				panic(fmt.Sprintf("opening corpus: %v", err))
			}
			defer store.Close()
			res := make([][]bench.Result, len(e.suite))
			for gi, g := range e.suite {
				res[gi] = l.corpusStream(e, store, g, pageRank, zooSpecs())
			}
			return []*bench.Report{renderFig2(e.suite, res)}
		},
	},
	{
		name:  "tiny-all",
		scale: graph.ScaleTiny,
		run: func(e *env) []*bench.Report {
			var reps []*bench.Report
			for _, x := range bench.Registry() {
				reps = append(reps, experiment(e.cfg, x.ID))
			}
			return reps
		},
		traced: func(e *env, l *layers) []*bench.Report {
			var fig2 *bench.Report
			for _, k := range kernels.All() {
				res := make([][]bench.Result, len(e.suite))
				for gi, g := range e.suite {
					res[gi] = l.memStream(e, g, k, append(zooSpecs(), spec{bits: 8}, spec{topt: true}))
				}
				if k.Name == pageRank.Name {
					for gi := range res {
						res[gi] = res[gi][:len(zooSpecs())]
					}
					fig2 = renderFig2(e.suite, res)
				}
			}
			return []*bench.Report{fig2}
		},
	},
}

// workload is one named benchmark input.
type workload struct {
	name  string
	scale graph.Scale
	// corpus makes set-up publish the suite's PageRank LLC streams into a
	// corpus directory before the timed pass.
	corpus bool
	// run is the timed pass, through the public path poptbench takes.
	run func(e *env) []*bench.Report
	// traced re-executes the same work serially through each layer's
	// entry points under l's spans and returns the reports it re-renders
	// from its own results; each must match the untraced report of the
	// same ID row for row.
	traced func(e *env, l *layers) []*bench.Report
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what one benchmark process sets up and its passes share.
type env struct {
	cfg   bench.Config
	dir   string // private scratch directory
	suite []*graph.Graph
}

func (e *env) corpusDir() string { return filepath.Join(e.dir, "corpus") }

// setup builds the suite (and, for corpus workloads, publishes every
// suite graph's PageRank stream), recording spans when t is non-nil.
func setup(w workload, e *env, t *tracer) error {
	t.do("graph.build", func() { e.suite = e.cfg.Suite() })
	if !w.corpus {
		return nil
	}
	store, err := corpus.Open(e.corpusDir())
	if err != nil {
		return fmt.Errorf("opening corpus: %w", err)
	}
	defer store.Close()
	c := e.cfg
	c.Corpus = store
	errs := make([]error, len(e.suite))
	cells := make([]bench.Cell, len(e.suite))
	for i, g := range e.suite {
		cells[i] = bench.Cell{Key: "publish/" + g.Name, Run: func() {
			t.do("corpus.publish", func() {
				_, _, errs[i] = bench.RecordLLCToCorpus(c, pageRank.New(g), bench.LRUSetup(), c.StreamKey(g, pageRank.Name))
			})
		}}
	}
	workers := e.cfg.Workers
	if t != nil {
		workers = 1 // spans nest on one stack
	}
	if err := (&bench.Sweep{Workers: workers}).Run(cells); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("publishing %s: %w", e.suite[i].Name, err)
		}
	}
	return nil
}

var pageRank = kernels.Builder{Name: "PR", New: kernels.NewPageRank}

// experiment runs one registered experiment, as poptbench does.
func experiment(c bench.Config, id string) *bench.Report {
	x, ok := bench.ByID(id)
	if !ok {
		panic("unknown experiment " + id)
	}
	return x.Run(c)
}

// quantGraphs picks popt-quant's inputs from the suite: KRON, where the
// widths disagree most in fig15 — 4-bit P-OPT loses to DRRIP, and 16 bits
// gain the most over 8.
func quantGraphs(suite []*graph.Graph) []*graph.Graph { return suite[2:3] }

// quantSetups is fig15's lineup, DRRIP (the baseline) first.
func quantSetups() []bench.Setup {
	return []bench.Setup{
		bench.DRRIPSetup(),
		bench.POPTSetup(core.InterIntra, 4, false),
		bench.POPTSetup(core.InterIntra, 8, false),
		bench.POPTSetup(core.InterIntra, 16, false),
		bench.TOPTSetup(),
	}
}

// runQuant is popt-quant's timed pass: each graph's PageRank LLC stream
// is recorded under the first setup, then replayed into the rest, each
// phase's cells fanned across the sweep pool.
func runQuant(e *env) *bench.Report {
	gs := quantGraphs(e.suite)
	setups := quantSetups()
	res := make([][]bench.Result, len(gs))
	ws := make([]*kernels.Workload, len(gs))
	trs := make([]*trace.LLCTrace, len(gs))
	var record, replay []bench.Cell
	for gi, g := range gs {
		res[gi] = make([]bench.Result, len(setups))
		record = append(record, bench.Cell{Key: "popt-quant/" + g.Name + "/" + setups[0].Name, Run: func() {
			ws[gi] = pageRank.New(g)
			res[gi][0], trs[gi] = bench.RecordLLC(e.cfg, ws[gi], setups[0])
		}})
		for si := 1; si < len(setups); si++ {
			replay = append(replay, bench.Cell{Key: "popt-quant/" + g.Name + "/" + setups[si].Name, Run: func() {
				res[gi][si] = bench.ReplayLLC(e.cfg, ws[gi], trs[gi], setups[si])
			}})
		}
	}
	for _, cells := range [][]bench.Cell{record, replay} {
		s := &bench.Sweep{Workers: e.cfg.Workers, Progress: e.cfg.Progress}
		if err := s.Run(cells); err != nil {
			panic(err)
		}
	}
	return renderQuant(gs, res)
}

// renderQuant renders results (per graph, in quantSetups order) the way
// fig15 renders its rows, plus one note per cell with its exact LLC miss
// and instruction counts, so the traced pass is checked against them.
func renderQuant(gs []*graph.Graph, res [][]bench.Result) *bench.Report {
	setups := quantSetups()[1:]
	rep := &bench.Report{ID: "popt-quant", Title: "fig15 lineup: miss reduction over DRRIP (limit case, no way cost)",
		Header: []string{"graph"}}
	for _, s := range setups {
		rep.Header = append(rep.Header, s.Name)
	}
	rep.Header = append(rep.Header, "ties(4b)", "ties(8b)", "ties(16b)")
	for gi, g := range gs {
		row := []string{g.Name}
		var ties []string
		for si, s := range setups {
			r := res[gi][si+1]
			row = append(row, fmt.Sprintf("%+.1f%%", bench.MissReduction(res[gi][0], r)))
			if s.Name != "T-OPT" {
				ties = append(ties, fmt.Sprintf("%.0f%%", 100*r.TieRate))
			}
		}
		rep.AddRow(append(row, ties...)...)
		for _, r := range res[gi] {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s %s: %d LLC misses, %d instructions",
				g.Name, r.Policy, r.H.LLC.Stats.Misses, r.Instructions))
		}
	}
	return rep
}

// renderFig2 renders per-graph results under zooSpecs the way fig2
// renders its rows and its miss-rate notes.
func renderFig2(suite []*graph.Graph, res [][]bench.Result) *bench.Report {
	rep := &bench.Report{ID: "fig2", Notes: []string{"LLC miss rates per policy:"}}
	for gi, g := range suite {
		row := []string{g.Name}
		mr := []string{g.Name}
		for _, r := range res[gi] {
			row = append(row, fmt.Sprintf("%.2f", r.MPKI()))
			mr = append(mr, fmt.Sprintf("%.0f%%", 100*r.H.LLCMissRate()))
		}
		rep.AddRow(row...)
		rep.Notes = append(rep.Notes, fmt.Sprintf("  %v", mr))
	}
	return rep
}
