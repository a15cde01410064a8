package bench

import (
	"fmt"
	"sync"

	"popt/internal/core"
	"popt/internal/corpus"
	"popt/internal/graph"
	"popt/internal/kernels"
	"popt/internal/mem"
	"popt/internal/trace"
)

// Shared-artifact memoization for sweeps. Every P-OPT and T-OPT cell on
// the same transpose and line geometry reads the same merged transpose
// (core.LineRefs): T-OPT takes its exact next references from it, and a
// P-OPT Rereference Matrix of any encoding and width computes its entries
// from it on demand. Table IV puts matrix construction alone at ~20% of a
// PageRank run, so at sweep scale rebuilding it per cell would dominate.
// An artifact cache keyed by the immutable inputs builds each merged
// transpose once and hands every cell it (P-OPT wraps it in a cheap
// core.Table geometry and a per-run core.Matrix view); suite graphs are
// memoized one level down in package graph. Correctness rests on two
// invariants the tests pin with checksums: cached products are never
// written after construction, and a cached build is bit-identical to a
// fresh one.
//
// The cache is per-Config (each experiment driver installs its own via
// withArtifacts), not process-global: fig11 and friends generate
// throwaway graphs per call, and a global cache keyed by their adjacency
// pointers would pin them forever. Paths that *measure* build cost
// (Table4, poptsim, direct core.BuildPOPT callers) have a nil cache and
// build fresh, unchanged.

type artifacts struct {
	mu      sync.Mutex
	lrs     map[lrKey]*lrEntry         //popt:guardedby mu
	streams map[streamKey]*streamEntry //popt:guardedby mu
}

// lrKey identifies one immutable merged transpose. The adjacency pointer
// is the graph identity: suite graphs are memoized, so the same input
// yields the same pointer for every cell of a sweep.
type lrKey struct {
	adj *graph.Adj
	epl int
}

// Entries carry a per-key once so a thundering herd of cells needing the
// same merged transpose at sweep start builds it exactly once without
// serializing builds of *different* ones behind one lock.
//
//popt:frozen
type lrEntry struct {
	once sync.Once
	lr   *core.LineRefs //popt:guardedby once
}

// streamKey identifies one recorded reference stream: a graph identity
// (suite graphs are memoized, so the pointer is stable across cells) plus
// a stream name covering everything else that shapes the emitted events —
// the kernel and its schedule ("PR", "PR-BDFS", "PR-tiled-8", ...).
type streamKey struct {
	g    *graph.Graph
	name string
}

// streamEntry memoizes one recorded LLC-visible stream together with the
// consumed workload that produced it: replays need the workload's
// immutable build inputs (transpose, irregular array layout) to
// instantiate policies. The LLC form is valid for any cell whose L1/L2
// shape matches the recorder's — within one experiment only fig16 varies
// the cache at all, and it varies just the LLC, which the stream does not
// depend on. The stream is a container either way: a corpus entry's when
// a corpus is configured, an in-memory recording's otherwise.
//
//popt:frozen
type streamEntry struct {
	once sync.Once
	h    streamHandle //popt:guardedby once
}

func newArtifacts() *artifacts {
	return &artifacts{
		lrs:     make(map[lrKey]*lrEntry),
		streams: make(map[streamKey]*streamEntry),
	}
}

// stream returns the (possibly still-unrecorded) entry for the key.
func (a *artifacts) stream(k streamKey) *streamEntry {
	a.mu.Lock()
	e := a.streams[k]
	if e == nil {
		e = new(streamEntry)
		a.streams[k] = e
	}
	a.mu.Unlock()
	return e
}

// lineRefs returns the memoized merged transpose for the key.
func (a *artifacts) lineRefs(k lrKey) *core.LineRefs {
	a.mu.Lock()
	e := a.lrs[k]
	if e == nil {
		e = new(lrEntry)
		a.lrs[k] = e
	}
	a.mu.Unlock()
	e.once.Do(func() { e.lr = core.BuildLineRefs(k.adj, k.epl) })
	return e.lr
}

// withArtifacts returns a copy of c carrying a fresh artifact cache;
// drivers call it once per experiment so all cells of the sweep share
// builds.
func (c Config) withArtifacts() Config {
	c.arts = newArtifacts()
	return c
}

// buildPOPT mirrors core.BuildPOPT — one Rereference Matrix per distinct
// elements-per-line, shared across the arrays (Section V-F) — but lays
// each table over the artifact cache's merged transpose when a cache is
// installed, so P-OPT at every width and encoding and T-OPT share one
// build, and cells differ only in their geometry and per-run Matrix views.
func (c Config) buildPOPT(refAdj *graph.Adj, numVertices int, kind core.Kind, bits uint, arrs ...*mem.Array) *core.POPT {
	if c.arts == nil {
		return core.BuildPOPT(refAdj, numVertices, kind, bits, arrs...)
	}
	streams := make([]core.Stream, len(arrs))
	byEPL := make(map[int]*core.Matrix)
	for i, arr := range arrs {
		epl := arr.ElemsPerLine()
		m := byEPL[epl]
		if m == nil {
			lr := c.arts.lineRefs(lrKey{adj: refAdj, epl: epl})
			m = core.NewTable(lr, numVertices, epl, kind, bits).NewMatrix()
			byEPL[epl] = m
		}
		streams[i] = core.Stream{Arr: arr, M: m}
	}
	return core.NewPOPT(streams...)
}

// StreamKey maps a named reference stream of g onto its corpus identity:
// the workload is the graph name plus its adjacency checksum (names alone
// are not unique — fig11's Uniform(4096, 4·4096) and the suite's
// URAND-12 share a name but not an edge list), the stream name is the
// schedule, and the config's scale/seed pin the generated input family
// and the L1/L2 shape. Exported so popttrace record pre-warms a corpus
// under exactly the keys sweeps look up.
func (c Config) StreamKey(g *graph.Graph, name string) corpus.Key {
	return corpus.Key{
		Workload: fmt.Sprintf("%s@%016x", g.Name, g.Checksum()),
		Schedule: name,
		Scale:    c.Scale.String(),
		Seed:     c.Seed,
	}
}

// streamHandle is a recorded stream ready to replay: the consumed
// workload that produced it and the container reader over the stream.
type streamHandle struct {
	w *kernels.Workload
	r *trace.Reader
}

// recordOrOpen produces the stream for (g, name), preferring the corpus:
// a warm corpus entry is opened and setup s replayed from it (no record
// phase at all — the acceptance contract for cross-process reuse); a cold
// corpus records through the chunked container encoder and publishes; no
// corpus records the same container into memory. The returned handle replays the
// same stream into any later setup via replayStream. build may be called
// more than once (each call must be deterministic): a failed corpus
// publication consumes its workload mid-record, so the in-memory fallback
// records into a fresh one.
func (c Config) recordOrOpen(g *graph.Graph, name string, build func() *kernels.Workload, s Setup) (Result, streamHandle) {
	if c.Corpus != nil {
		key := c.StreamKey(g, name)
		if ent := c.Corpus.Lookup(key); ent != nil {
			h := streamHandle{w: build(), r: ent.Reader()}
			return c.replayStream(g, name, h, s), h
		}
		w := build()
		start := c.phaseStart()
		res, ent, err := RecordLLCToCorpus(c, w, s, key)
		if err == nil {
			c.phaseDone(g.Name+"/"+name, "record", start)
			return res, streamHandle{w: w, r: ent.Reader()}
		}
		// Publication failed (full disk, permissions): fall through and
		// record in memory — sweep results do not depend on the corpus,
		// only its reuse does.
	}
	w := build()
	start := c.phaseStart()
	res, tr := RecordLLC(c, w, s)
	c.phaseDone(g.Name+"/"+name, "record", start)
	return res, streamHandle{w: w, r: tr.Reader()}
}

// replayStream feeds the handle's stream into setup s.
func (c Config) replayStream(g *graph.Graph, name string, h streamHandle, s Setup) Result {
	start := c.phaseStart()
	res := replayReader(c, h.w, h.r, s)
	c.phaseDone(g.Name+"/"+name+"/"+s.Name, "replay", start)
	return res
}

// runStream simulates setup s against the named reference stream of g,
// recording the LLC-visible stream once per (graph, stream) and replaying
// it into every later setup. The first cell to arrive produces the stream
// — from the corpus when one is configured and warm (no kernel execution
// at all), else by running its kernel live with an LLC encoder tapped
// onto its hierarchy (recording piggybacks on real work); all other cells
// replay, skipping kernel re-execution and L1/L2 simulation entirely.
// Replay is byte-identical to live execution (golden-tested), so which
// cell records is irrelevant and sweep reports stay deterministic at
// every worker count; drivers list one producing cell per stream ahead of
// the replaying ones only so that replays do not wait (producersFirst).
// With no artifact cache (or under NoReplay) every cell runs live, as
// before the trace pipeline.
//
// build must construct the workload deterministically from g alone: the
// stream name is trusted to cover kernel identity and schedule.
func (c Config) runStream(g *graph.Graph, name string, build func(g *graph.Graph) *kernels.Workload, s Setup) Result {
	if c.arts == nil || c.NoReplay {
		return RunWorkload(c, build(g), s)
	}
	e := c.arts.stream(streamKey{g: g, name: name})
	var first *Result
	e.once.Do(func() {
		res, h := c.recordOrOpen(g, name, func() *kernels.Workload { return build(g) }, s)
		e.h = h
		first = &res
	})
	if first != nil {
		return *first
	}
	return c.replayStream(g, name, e.h, s)
}

// runSetups simulates several setups of one cell against a single stream
// of the named (graph, stream) pair: the first setup produces the stream
// (corpus-open, corpus-record, or in-memory record — see recordOrOpen),
// the rest replay it. Used by drivers whose cells compare policies on a
// workload that is not shared with other cells (per-cell variants,
// throwaway graphs); the (g, name) identity exists so such streams still
// land in the corpus under a stable cross-process key. Under NoReplay
// every setup runs a fresh build(), preserving the pre-trace behavior.
func (c Config) runSetups(g *graph.Graph, name string, build func() *kernels.Workload, setups ...Setup) []Result {
	out := make([]Result, len(setups))
	if len(setups) == 0 {
		return out
	}
	if c.NoReplay {
		for i, s := range setups {
			out[i] = RunWorkload(c, build(), s)
		}
		return out
	}
	res, h := c.recordOrOpen(g, name, build, setups[0])
	out[0] = res
	for i, s := range setups[1:] {
		out[i+1] = c.replayStream(g, name, h, s)
	}
	return out
}

// buildTOPT mirrors core.BuildTOPT with memoized merged transposes.
func (c Config) buildTOPT(refAdj *graph.Adj, arrs ...*mem.Array) *core.TOPT {
	if c.arts == nil {
		return core.BuildTOPT(refAdj, arrs...)
	}
	streams := make([]core.OracleStream, len(arrs))
	for i, arr := range arrs {
		streams[i] = core.OracleStream{
			Arr: arr,
			Ref: refAdj,
			LR:  c.arts.lineRefs(lrKey{adj: refAdj, epl: arr.ElemsPerLine()}),
		}
	}
	return core.NewTOPT(streams...)
}
