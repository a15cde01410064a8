package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"popt/internal/core"
	"popt/internal/graph"
	"popt/internal/kernels"
)

// sweepMatrix renders four structurally different experiments (a plain
// grid, a base+setups grid, a per-cell-generated-graph sweep, and the
// paired update-phase runs) at the given worker count.
func sweepMatrix(workers int) string {
	cfg := TinyConfig()
	cfg.Workers = workers
	var sb strings.Builder
	for _, run := range []func(Config) *Report{Fig2, Fig7, Fig11, Fig14} {
		sb.WriteString(run(cfg).String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestSweepWorkerInvariance is the tentpole guarantee: sweep reports are
// byte-identical at every worker count, pinned against a checked-in golden
// so a regression can't slip in by breaking serial and parallel the same
// way twice.
func TestSweepWorkerInvariance(t *testing.T) {
	serial := sweepMatrix(1)
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		if got := sweepMatrix(workers); got != serial {
			t.Fatalf("report at %d workers diverges from serial:\n--- parallel ---\n%s--- serial ---\n%s", workers, got, serial)
		}
	}

	goldenPath := filepath.Join("testdata", "sweep.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(serial), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run `go test ./internal/bench -run SweepWorkerInvariance -update` after intentional changes): %v", err)
	}
	if string(want) != serial {
		t.Fatalf("sweep reports diverge from checked-in golden (intentional change? re-run with -update):\n--- got ---\n%s--- want ---\n%s", serial, want)
	}
}

// TestSweepPanicCell pins the failure path: a panicking cell surfaces as an
// error naming the cell, every other cell still runs, and the pool shuts
// down instead of deadlocking.
func TestSweepPanicCell(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		cells := make([]Cell, 8)
		for i := range cells {
			if i == 3 {
				cells[i] = Cell{Key: "boom", Run: func() { panic("exploded") }}
				continue
			}
			cells[i] = Cell{Key: fmt.Sprintf("ok-%d", i), Run: func() { ran.Add(1) }}
		}
		err := (&Sweep{Workers: workers}).Run(cells)
		if err == nil {
			t.Fatalf("workers=%d: panic in cell not surfaced", workers)
		}
		for _, want := range []string{"cell 3", "boom", "exploded"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("workers=%d: error %q missing %q", workers, err, want)
			}
		}
		if got := ran.Load(); got != 7 {
			t.Errorf("workers=%d: %d of 7 healthy cells ran", workers, got)
		}
	}
}

// TestSweepFirstErrorByCellOrder checks Run reports the lowest-index
// failure regardless of completion order.
func TestSweepFirstErrorByCellOrder(t *testing.T) {
	cells := []Cell{
		{Key: "a", Run: func() { panic("first") }},
		{Key: "b", Run: func() { panic("second") }},
	}
	err := (&Sweep{Workers: 2}).Run(cells)
	if err == nil || !strings.Contains(err.Error(), "cell 0") || !strings.Contains(err.Error(), "first") {
		t.Fatalf("want cell 0 failure reported first, got %v", err)
	}
}

// TestSweepProgressEvents checks every cell produces exactly one event and
// Done counts are a permutation-free 1..N sequence.
func TestSweepProgressEvents(t *testing.T) {
	var events []CellEvent
	s := &Sweep{Workers: 4, Progress: func(ev CellEvent) { events = append(events, ev) }}
	cells := make([]Cell, 10)
	for i := range cells {
		cells[i] = Cell{Key: fmt.Sprintf("c%d", i), Run: func() {}}
	}
	if err := s.Run(cells); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(cells) {
		t.Fatalf("got %d events for %d cells", len(events), len(cells))
	}
	seen := make(map[int]bool)
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != len(cells) {
			t.Errorf("event %d: Done=%d Total=%d", i, ev.Done, ev.Total)
		}
		if seen[ev.Index] {
			t.Errorf("cell %d reported twice", ev.Index)
		}
		seen[ev.Index] = true
	}
}

// TestSweepProducersFirst pins the dispatch order of the stream-sharing
// drivers: in a serial run every stream is recorded before any stream is
// replayed, and each distinct stream (one per graph row of the report) is
// recorded exactly once. Graph-major order would interleave them.
func TestSweepProducersFirst(t *testing.T) {
	for _, run := range []func(Config) *Report{Fig2, Fig4, Fig7, Fig15, Fig16} {
		var phases []PhaseEvent
		cfg := TinyConfig()
		cfg.Workers = 1
		cfg.PhaseProgress = func(ev PhaseEvent) { phases = append(phases, ev) }
		rep := run(cfg)

		streams := make(map[string]bool)
		for _, row := range rep.Rows {
			streams[row[0]] = true
		}
		recorded := make(map[string]bool)
		replaying := false
		for _, ev := range phases {
			switch ev.Phase {
			case "record":
				if replaying {
					t.Fatalf("%s: record %s follows a replay", rep.ID, ev.Key)
				}
				if recorded[ev.Key] {
					t.Fatalf("%s: stream %s recorded twice", rep.ID, ev.Key)
				}
				recorded[ev.Key] = true
			case "replay":
				replaying = true
			}
		}
		if len(recorded) != len(streams) {
			t.Fatalf("%s: %d record phases for %d distinct streams", rep.ID, len(recorded), len(streams))
		}
		if !replaying {
			t.Fatalf("%s: no replay phases", rep.ID)
		}
	}
}

// TestArtifactSharing checks the memoization layer: P-OPT at 4, 8 and 16
// bits and T-OPT, each built twice on the same graph, share one merged
// transpose per (adjacency, line geometry), while each policy instance
// stays private.
func TestArtifactSharing(t *testing.T) {
	c := TinyConfig().withArtifacts()
	g := c.Suite()[0]
	epls := make(map[int]bool)
	var popts []*core.POPT
	for _, w := range []*kernels.Workload{kernels.NewPageRank(g), kernels.NewPageRank(g)} {
		for _, arr := range w.Irregular {
			epls[arr.ElemsPerLine()] = true
		}
		for _, bits := range []uint{4, 8, 16} {
			popts = append(popts, c.buildPOPT(w.RefAdj, w.G.NumVertices(), core.InterIntra, bits, w.Irregular...))
		}
		c.buildTOPT(w.RefAdj, w.Irregular...)
	}
	if popts[1] == popts[4] {
		t.Fatal("policy instances must be per-cell, not shared")
	}
	if got := len(c.arts.lrs); got != len(epls) { //lint:allow lockguard (single-threaded assert)
		t.Fatalf("P-OPT-4/8/16 and T-OPT builds created %d merged transposes, want one per line geometry (%d)", got, len(epls))
	}

	// A cached build must be bit-identical to a fresh one.
	//lint:allow lockguard (single-threaded assert)
	for k, e := range c.arts.lrs { //lint:ordered (independent per-key comparisons)
		fresh := core.BuildLineRefs(k.adj, k.epl)
		if fresh.Checksum() != e.lr.Checksum() { //lint:allow lockguard
			t.Fatal("cached merged transpose diverges from a fresh build")
		}
	}
}

// TestSweepSharedInputsImmutable hashes every shared artifact before and
// after a full parallel experiment: no cell may write through the shared
// suite graphs, merged transposes, or Rereference Matrix geometry laid
// over them.
func TestSweepSharedInputsImmutable(t *testing.T) {
	c := TinyConfig()
	c.Workers = runtime.GOMAXPROCS(0)
	suite := c.Suite()
	pre := make([]uint64, len(suite))
	for i, g := range suite {
		pre[i] = g.Checksum()
	}
	// Pre-build every artifact the sweep will use, hash them, then run a
	// parallel P-OPT + T-OPT grid against the same cache.
	arts := newArtifacts()
	tables := make(map[lrKey]*core.Table)
	for _, g := range suite {
		w := kernels.NewPageRank(g)
		k := lrKey{adj: w.RefAdj, epl: w.Irregular[0].ElemsPerLine()}
		tables[k] = core.NewTable(arts.lineRefs(k), g.NumVertices(), k.epl, core.InterIntra, 8)
	}
	tableSums := make(map[lrKey]uint64)
	for k, tab := range tables { //lint:ordered (checksums keyed, order-independent)
		tableSums[k] = tab.Checksum()
	}
	lrSums := make(map[lrKey]uint64)
	//lint:allow lockguard (single-threaded before the sweep)
	for k, e := range arts.lrs { //lint:ordered (checksums keyed, order-independent)
		lrSums[k] = e.lr.Checksum() //lint:allow lockguard
	}

	cArt := c
	cArt.arts = arts
	sweepGrid(cArt, "immut", suite, []Setup{POPTSetup(core.InterIntra, 8, true), TOPTSetup()}, func(g *graph.Graph, s Setup) Result {
		return RunWorkload(cArt, kernels.NewPageRank(g), s)
	})

	for i, g := range suite {
		if g.Checksum() != pre[i] {
			t.Fatalf("suite graph %s mutated by sweep", g.Name)
		}
	}
	for k, tab := range tables { //lint:ordered (checksums keyed, order-independent)
		if tab.Checksum() != tableSums[k] {
			t.Fatal("shared Rereference Matrix table mutated by sweep")
		}
	}
	//lint:allow lockguard (single-threaded after the sweep joined)
	for k, e := range arts.lrs { //lint:ordered (checksums keyed, order-independent)
		if e.lr.Checksum() != lrSums[k] { //lint:allow lockguard
			t.Fatal("shared merged transpose mutated by sweep")
		}
	}
}

// TestSuiteMemoized checks graph.Suite returns the same immutable graph
// pointers on every call, and that the returned slice itself is fresh.
func TestSuiteMemoized(t *testing.T) {
	a := graph.Suite(graph.ScaleTiny, 42)
	b := graph.Suite(graph.ScaleTiny, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("suite graph %d rebuilt instead of memoized", i)
		}
	}
	a[0] = nil
	if c := graph.Suite(graph.ScaleTiny, 42); c[0] == nil {
		t.Fatal("caller writes alias the cached suite slice")
	}
}

// BenchmarkSweep measures one full fig2 sweep at tiny scale, serial vs all
// cores; the recorded numbers live in BENCH_sweep.json.
func BenchmarkSweep(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("fig2-j%d", workers), func(b *testing.B) {
			cfg := TinyConfig()
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				Fig2(cfg)
			}
		})
	}
}
