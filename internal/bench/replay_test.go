package bench

import (
	"fmt"
	"strings"
	"testing"

	"popt/internal/cache"
	"popt/internal/core"
	"popt/internal/graph"
	"popt/internal/kernels"
	"popt/internal/trace"
)

// fingerprint renders every counter a Result can report, so "byte
// identical" below means identical down to the last eviction.
func fingerprint(res Result) string {
	var sb strings.Builder
	h := res.H
	fmt.Fprintf(&sb, "policy=%s", res.Policy)
	for _, e := range []struct {
		name string
		l    *cache.Level
	}{{"l1", h.L1}, {"l2", h.L2}, {"llc", h.LLC}} {
		st := e.l.Stats
		fmt.Fprintf(&sb, " %s(a=%d,h=%d,m=%d,e=%d,wb=%d)", e.name,
			st.Accesses, st.Hits, st.Misses, st.Evictions, st.Writebacks)
	}
	fmt.Fprintf(&sb, " dram(r=%d,w=%d) instr=%d reserved=%d streamed=%d tie=%.6f",
		h.DRAMReads, h.DRAMWrites, res.Instructions, res.Reserved, res.Streamed, res.TieRate)
	return sb.String()
}

// TestReplayMatchesLiveAcrossZoo is the replay-equivalence golden: for
// every policy in the zoo (plus the paper's P-OPT/T-OPT variants), a
// replayed recorded stream must produce counters identical to a fresh live
// run — on a plain kernel (PR), on a muting, frontier-driven one (Radii),
// and on a CSR-segmented one that switches tiles (PR-tiled, which also
// runs the tile-aware P-OPT). Each kernel is recorded twice: at the
// default chunk target and at 128-byte chunks, so SetVertex,
// StartIteration and SetTile events straddle chunk boundaries under the
// hooked setups.
func TestReplayMatchesLiveAcrossZoo(t *testing.T) {
	c := TinyConfig()
	c.CheckPolicies = true
	setups := append(AllBaselineSetups(),
		TOPTSetup(),
		POPTSetup(core.InterIntra, 8, true),
		POPTSetup(core.InterOnly, 8, true),
		POPTSetup(core.SingleEpoch, 8, true),
	)
	g := graph.Uniform(1<<10, 4<<10, c.Seed)
	seg := graph.Segment(g, 4)
	tiledPOPT := Setup{Name: "P-OPT-tiled", Make: func(_ Config, w *kernels.Workload, cfg cache.Config) (cache.Policy, core.VertexIndexed, int) {
		tp := core.NewTiledPOPT(seg, w.Irregular[0], core.InterIntra, 8)
		return tp, tp, tp.ReservedWays(cfg.LLCSize / (cfg.LLCWays * 64))
	}}
	builders := []struct {
		kernels.Builder
		extra []Setup
	}{
		{Builder: kernels.Builder{Name: "PR", New: kernels.NewPageRank}},
		{Builder: kernels.Builder{Name: "Radii", New: kernels.NewRadii}},
		{Builder: kernels.Builder{Name: "PR-tiled", New: func(g *graph.Graph) *kernels.Workload {
			return kernels.NewPageRankTiled(g, seg)
		}}, extra: []Setup{tiledPOPT}},
	}
	for _, b := range builders {
		// Recording runs per kernel; LRU is arbitrary (the stream is
		// policy-independent).
		recWL := b.New(g)
		_, ltr := RecordLLC(c, recWL, LRUSetup())
		small, err := trace.RecordLLCTrace(128, func(cw *trace.ContainerWriter) error {
			_, err := recordLLC(c, b.New(g), LRUSetup(), cw)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if small.Reader().Chunks() < 16 {
			t.Fatalf("%s: 128-byte recording has only %d chunks", b.Name, small.Reader().Chunks())
		}
		for _, s := range append(setups, b.extra...) {
			t.Run(b.Name+"/"+s.Name, func(t *testing.T) {
				liveW := b.New(g)
				live := fingerprint(RunWorkload(c, liveW, s))
				if err := liveW.Check(); err != nil {
					t.Fatal(err)
				}
				if replayed := fingerprint(ReplayLLC(c, recWL, ltr, s)); live != replayed {
					t.Errorf("LLC replay diverged from live:\n live:   %s\n replay: %s", live, replayed)
				}
				if replayed := fingerprint(ReplayLLC(c, recWL, small, s)); live != replayed {
					t.Errorf("128-byte-chunk LLC replay diverged from live:\n live:   %s\n replay: %s", live, replayed)
				}
			})
		}
	}
}

// TestRunStreamPiggybacksRecording checks the sweep-side memoization: with
// an artifact cache installed, the first runStream call records and later
// calls replay, and both report counters identical to live no-cache runs.
func TestRunStreamPiggybacksRecording(t *testing.T) {
	c := TinyConfig().withArtifacts()
	plain := TinyConfig() // no cache: always live
	g := graph.Uniform(1<<10, 4<<10, c.Seed)
	setups := []Setup{DRRIPSetup(), POPTSetup(core.InterIntra, 8, true), TOPTSetup()}
	for _, s := range setups {
		got := fingerprint(c.runStream(g, "PR", kernels.NewPageRank, s))
		want := fingerprint(plain.runStream(g, "PR", kernels.NewPageRank, s))
		if got != want {
			t.Errorf("%s: cached runStream diverged from live:\n got:  %s\n want: %s", s.Name, got, want)
		}
	}
	if len(c.arts.streams) != 1 { //lint:allow lockguard (single-threaded assert)
		t.Errorf("stream cache holds %d entries, want 1", len(c.arts.streams))
	}
}

// BenchmarkLiveVsReplay contrasts a live kernel execution against a trace
// replay driving the same policy setup (the sweep engine's trade).
func BenchmarkLiveVsReplay(b *testing.B) {
	c := TinyConfig()
	g := graph.Uniform(1<<12, 4<<12, c.Seed)
	b.Run("live", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RunWorkload(c, kernels.NewPageRank(g), DRRIPSetup())
		}
	})
	recWL := kernels.NewPageRank(g)
	_, ltr := RecordLLC(c, recWL, DRRIPSetup())
	b.Run("replay-llc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ReplayLLC(c, recWL, ltr, DRRIPSetup())
		}
	})
}

// TestNoReplayMatchesReplay pins that -noreplay is purely a performance
// A/B switch: both modes report the same counters.
func TestNoReplayMatchesReplay(t *testing.T) {
	g := graph.Uniform(1<<10, 4<<10, 42)
	mk := func() *kernels.Workload { return kernels.NewPageRank(g) }
	setups := []Setup{DRRIPSetup(), POPTSetup(core.InterIntra, 8, true)}
	c := TinyConfig()
	nc := c
	nc.NoReplay = true
	a := c.runSetups(g, "PR", mk, setups...)
	b := nc.runSetups(g, "PR", mk, setups...)
	for i := range a {
		if fingerprint(a[i]) != fingerprint(b[i]) {
			t.Errorf("setup %d: replay and noreplay diverge", i)
		}
	}
}
