package main

import (
	"fmt"
	"os"

	"popt/internal/bench"
	"popt/internal/cache"
	"popt/internal/core"
	"popt/internal/corpus"
	"popt/internal/graph"
	"popt/internal/kernels"
	"popt/internal/trace"
)

// spec names one LLC policy setup of the traced pass. P-OPT and T-OPT are
// assembled from outside bench (core.BuildTable, core.BuildLineRefs) so
// their builds get spans of their own instead of being booked as replay.
type spec struct {
	plain bench.Setup // a workload-independent policy; used when bits == 0 && !topt
	bits  uint        // P-OPT (inter+intra encoding, no way charge) at this width
	topt  bool        // T-OPT
}

func zooSpecs() []spec {
	return []spec{{plain: bench.LRUSetup()}, {plain: bench.DRRIPSetup()}, {plain: bench.SHiPPCSetup()},
		{plain: bench.SHiPMemSetup()}, {plain: bench.HawkeyeSetup()}}
}

func quantSpecs() []spec {
	return []spec{{plain: bench.DRRIPSetup()}, {bits: 4}, {bits: 8}, {bits: 16}, {topt: true}}
}

// layers drives the traced pass and accumulates what each layer did.
type layers struct {
	t      *tracer
	victim victimStats

	recordedEvents, replayedEvents uint64
	streamBytes                    int64
	instructions                   uint64
	llc                            cache.Stats
	tableBytes, lineRefsBytes      uint64
	lookups, ties, streamed        uint64
	containerBytes, maxResident    int64

	attempted, failed int
}

// check counts one fidelity check as an operation, and a failed one as a
// failed operation.
func (l *layers) check(ok bool, format string, args ...any) {
	l.attempted++
	if !ok {
		l.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// checkKernel checks w's computed results against the kernel's own
// golden implementation.
func (l *layers) checkKernel(w *kernels.Workload, format string, args ...any) {
	var err error
	l.t.do("kernels.check", func() { err = w.Check() })
	l.check(err == nil, format+": %v", append(args, err)...)
}

// assemble builds the setup sp names for workload w. For P-OPT it also
// returns the policy, whose counters the caller reads after the replay.
func (l *layers) assemble(w *kernels.Workload, sp spec) (bench.Setup, *core.POPT) {
	switch {
	case sp.bits != 0:
		// One table per distinct elements-per-line, shared across the
		// arrays, as core.BuildPOPT does.
		streams := make([]core.Stream, len(w.Irregular))
		byEPL := make(map[int]*core.Matrix)
		for i, arr := range w.Irregular {
			epl := arr.ElemsPerLine()
			m := byEPL[epl]
			if m == nil {
				var t *core.Table
				l.t.do("core.table_build", func() {
					t = core.BuildTable(w.RefAdj, w.G.NumVertices(), epl, core.InterIntra, sp.bits)
				})
				l.tableBytes += t.MemBytes()
				m = t.NewMatrix()
				byEPL[epl] = m
			}
			streams[i] = core.Stream{Arr: arr, M: m}
		}
		p := core.NewPOPT(streams...)
		name := "P-OPT"
		if sp.bits != 8 {
			name = fmt.Sprintf("P-OPT-%db", sp.bits)
		}
		return fixed(name, p, p), p
	case sp.topt:
		streams := make([]core.OracleStream, len(w.Irregular))
		byEPL := make(map[int]*core.LineRefs)
		for i, arr := range w.Irregular {
			epl := arr.ElemsPerLine()
			lr := byEPL[epl]
			if lr == nil {
				l.t.do("core.linerefs_build", func() { lr = core.BuildLineRefs(w.RefAdj, epl) })
				l.lineRefsBytes += lr.MemBytes()
				byEPL[epl] = lr
			}
			streams[i] = core.OracleStream{Arr: arr, Ref: w.RefAdj, LR: lr}
		}
		p := core.NewTOPT(streams...)
		return fixed("T-OPT", p, p), nil
	}
	return sp.plain, nil
}

// fixed is a setup that hands out one prebuilt policy.
func fixed(name string, pol cache.Policy, hook core.VertexIndexed) bench.Setup {
	return bench.Setup{Name: name, Make: func(bench.Config, *kernels.Workload, cache.Config) (cache.Policy, core.VertexIndexed, int) {
		return pol, hook, 0
	}}
}

// replay runs one assembled setup through do (the replay call of the
// stream's form) with its policy seat timed, and folds the result's
// counters into the layer totals.
func (l *layers) replay(name string, w *kernels.Workload, sp spec, events uint64, do func(s bench.Setup) bench.Result) bench.Result {
	s, p := l.assemble(w, sp)
	var res bench.Result
	l.t.do(name, func() { res = do(timed(s, &l.victim)) })
	l.replayedEvents += events
	l.llc.Add(res.H.LLC.Stats)
	if p != nil {
		// The timed seat hides the policy from bench's own P-OPT metric
		// extraction; take the metrics from the policy itself.
		res.Streamed = p.BytesStreamed
		res.TieRate = p.TieRate()
		l.lookups += p.Lookups
		l.ties += p.Ties
		l.streamed += p.BytesStreamed
	}
	return res
}

// memStream runs kernel k on g through the in-memory trace path: live,
// recorded, then replayed into every spec (the first must be plain; it is
// also the live and recording setup).
func (l *layers) memStream(e *env, g *graph.Graph, k kernels.Builder, specs []spec) []bench.Result {
	first := specs[0].plain
	var live, w *kernels.Workload
	var liveRes, recRes bench.Result
	var tr *trace.LLCTrace
	l.t.do("kernels.build", func() { live = k.New(g) })
	l.t.do("kernels.live", func() { liveRes = bench.RunWorkload(e.cfg, live, first) })
	l.checkKernel(live, "%s/%s: live kernel result", g.Name, k.Name)
	l.t.do("kernels.build", func() { w = k.New(g) })
	l.t.do("trace.record", func() { recRes, tr = bench.RecordLLC(e.cfg, w, first) })
	l.checkKernel(w, "%s/%s: recorded kernel result", g.Name, k.Name)
	l.check(sameRun(liveRes, recRes), "%s/%s: recording changed the run", g.Name, k.Name)
	events := tr.Stats().Events()
	l.recordedEvents += events
	l.streamBytes += int64(tr.Size())
	l.instructions += recRes.Instructions
	out := make([]bench.Result, len(specs))
	for i, sp := range specs {
		out[i] = l.replay("trace.replay", w, sp, events, func(s bench.Setup) bench.Result {
			return bench.ReplayLLC(e.cfg, w, tr, s)
		})
	}
	l.check(sameRun(recRes, out[0]), "%s/%s: replay differs from the recording run", g.Name, k.Name)
	return out
}

// corpusStream replays kernel k's stream of g from store into every spec.
func (l *layers) corpusStream(e *env, store *corpus.Store, g *graph.Graph, k kernels.Builder, specs []spec) []bench.Result {
	var w *kernels.Workload
	var ent *corpus.Entry
	l.t.do("kernels.build", func() { w = k.New(g) })
	l.t.do("corpus.lookup", func() { ent = store.Lookup(e.cfg.StreamKey(g, k.Name)) })
	if ent == nil {
		l.check(false, "%s/%s: stream missing from the corpus", g.Name, k.Name)
		return nil
	}
	r := ent.Reader()
	instr, _, _, _, _ := r.LLCTotals()
	l.recordedEvents += r.Events()
	l.streamBytes += r.PayloadBytes()
	l.instructions += instr
	l.containerBytes += r.Size()
	out := make([]bench.Result, len(specs))
	for i, sp := range specs {
		out[i] = l.replay("trace.decode_replay", w, sp, r.Events(), func(s bench.Setup) bench.Result {
			return bench.ReplayLLCEntry(e.cfg, w, ent, s)
		})
	}
	l.maxResident = max(l.maxResident, r.MaxResidentBytes())
	return out
}

// sameRun reports whether two results of one stream agree on every LLC
// counter and the instruction count.
func sameRun(a, b bench.Result) bool {
	return a.Instructions == b.Instructions && a.H.LLC.Stats == b.H.LLC.Stats
}
