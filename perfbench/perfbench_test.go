package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"popt/internal/bench"
	"popt/internal/core"
	"popt/internal/graph"
)

// TestTimedPolicyKeepsCounters replays one recorded stream into every
// setup with and without the timed policy seat, and with P-OPT/T-OPT
// assembled from outside bench as the traced pass does: every LLC counter
// and the instruction count must be identical, and the seat must see one
// Victim call per eviction.
func TestTimedPolicyKeepsCounters(t *testing.T) {
	c := bench.TinyConfig()
	l := &layers{}
	for _, g := range c.Suite()[1:3] {
		w := pageRank.New(g)
		_, tr := bench.RecordLLC(c, w, bench.LRUSetup())
		for _, sp := range []spec{{plain: bench.LRUSetup()}, {plain: bench.DRRIPSetup()},
			{plain: bench.SHiPPCSetup()}, {plain: bench.SHiPMemSetup()}, {plain: bench.HawkeyeSetup()},
			{plain: bench.SDBPSetup()}, {plain: bench.DIPSetup()}, {bits: 4}, {bits: 8}, {bits: 16}, {topt: true}} {
			var ref bench.Setup
			switch {
			case sp.bits != 0:
				ref = bench.POPTSetup(core.InterIntra, sp.bits, false)
			case sp.topt:
				ref = bench.TOPTSetup()
			default:
				ref = sp.plain
			}
			want := bench.ReplayLLC(c, w, tr, ref)
			before := l.victim.calls
			got := l.replay("trace.replay", w, sp, tr.Stats().Events(), func(s bench.Setup) bench.Result {
				return bench.ReplayLLC(c, w, tr, s)
			})
			if !sameRun(got, want) || got.H.L1.Stats != want.H.L1.Stats || got.H.L2.Stats != want.H.L2.Stats {
				t.Errorf("%s/%s: timed replay %+v, plain %+v", g.Name, ref.Name, got.H.LLC.Stats, want.H.LLC.Stats)
			}
			if got.TieRate != want.TieRate || got.Streamed != want.Streamed {
				t.Errorf("%s/%s: P-OPT metrics: tie rate %v, streamed %d; plain %v, %d",
					g.Name, ref.Name, got.TieRate, got.Streamed, want.TieRate, want.Streamed)
			}
			if calls := l.victim.calls - before; calls != want.H.LLC.Stats.Evictions {
				t.Errorf("%s/%s: %d Victim calls for %d evictions", g.Name, ref.Name, calls, want.H.LLC.Stats.Evictions)
			}
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "traced", Start: 0, End: 10, Parent: -1},
		{Name: "trace.replay", Start: 1, End: 5, Parent: 0},
		{Name: "core.table_build", Start: 1, End: 2, Parent: 1},
		{Name: "trace.replay", Start: 5, End: 9, Parent: 0},
	}}
	if got := tr.total("trace.replay"); got != 8 {
		t.Errorf("total = %v, want 8", got)
	}
	if got := tr.self("trace.replay"); got != 7 {
		t.Errorf("self = %v, want 7", got)
	}
	if got := tr.coverage("traced"); got != 0.8 {
		t.Errorf("coverage = %v, want 0.8", got)
	}
}

func TestRowCount(t *testing.T) {
	var o opCount
	o.rows("a\nb\nc", "a\nb\nc", "itself")
	o.rows("a\nx\nc\nd", "a\nb\nc", "itself")
	o.rows("a\nNaN\nc", "a\nNaN\nc", "itself")
	if o.attempted != 9 || o.failed != 3 {
		t.Errorf("attempted %d, failed %d; want 9, 3", o.attempted, o.failed)
	}
}

// TestTracedTinyAll runs tiny-all's untraced and traced passes and
// requires every fidelity check to pass and the reference report to match.
func TestTracedTinyAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at tiny scale")
	}
	w, _ := findWorkload("tiny-all")
	e := &env{cfg: config(w, 42), dir: t.TempDir()}
	l := &layers{t: newTracer()}
	if err := setup(w, e, l.t); err != nil {
		t.Fatal(err)
	}
	reps := w.run(e)
	if want, ok := reference(w.name, 42); !ok || renderText(reps) != want {
		t.Errorf("tiny-all report differs from testdata (reference present: %v)", ok)
	}
	var again []*bench.Report
	l.t.do("traced", func() { again = w.traced(e, l) })
	for _, r := range again {
		l.check(sameRows(find(reps, r.ID), r), "traced %s report", r.ID)
	}
	if l.failed != 0 || l.attempted == 0 {
		t.Errorf("%d of %d fidelity checks failed", l.failed, l.attempted)
	}
	if e.cfg.Scale != graph.ScaleTiny {
		t.Errorf("tiny-all runs at %v", e.cfg.Scale)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the benchmark
// prints in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end %v, printed %v", b.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(b.PerLayer, layerMetricDefs) {
		t.Errorf("per_layer %v, printed %v", b.PerLayer, layerMetricDefs)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v; %d workloads defined", names, len(workloads))
	}
}
