package main

import (
	"embed"
	"fmt"
	"sort"
	"sync"
	"time"

	"popt/internal/bench"
)

// layerMetricDefs are the traced run's per-layer metrics, in print order.
// workloads.go maps each onto the end-to-end metric it should move.
var layerMetricDefs = []metricDef{
	{"graph.build_s", "s"},
	{"graph.adj_mib", "MiB"},
	{"kernels.live_s", "s"},
	{"kernels.instructions", "count"},
	{"trace.record_s", "s"},
	{"trace.llc_events", "count"},
	{"trace.bytes_per_event", "B/event"},
	{"trace.replay_s", "s"},
	{"cache.llc_accesses", "count"},
	{"cache.llc_misses", "count"},
	{"cache.llc_evictions", "count"},
	{"cache.ns_per_event", "ns"},
	{"policy.victim_s", "s"},
	{"policy.victim_calls", "count"},
	{"policy.ns_per_victim", "ns"},
	{"core.table_build_s", "s"},
	{"core.table_mib", "MiB"},
	{"core.linerefs_build_s", "s"},
	{"core.linerefs_mib", "MiB"},
	{"core.popt_lookups", "count"},
	{"core.popt_ties", "count"},
	{"core.bytes_streamed", "B"},
	{"corpus.publish_s", "s"},
	{"corpus.lookup_s", "s"},
	{"trace.decode_replay_s", "s"},
	{"trace.container_mib", "MiB"},
	{"trace.max_resident_kib", "KiB"},
	{"bench.cell_s.p50", "s"},
	{"bench.cell_s.max", "s"},
	{"bench.critical_share", "ratio"},
	{"bench.pool_util", "ratio"},
	{"trace.span_coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

const mib = 1 << 20

// layerMetrics computes the per-layer metrics of a traced child from its
// spans' self times, its layer counters, and the untraced pass's cell log
// and timings.
func layerMetrics(e *env, l *layers, cells *cellLog, untraced childResult) map[string]float64 {
	t := l.t
	var adj uint64
	for _, g := range e.suite {
		adj += g.Out.MemBytes() + g.In.MemBytes()
	}
	per := func(num float64, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return num / float64(den)
	}
	// Victim time excludes the timer's share inside the measured interval;
	// the datapath's excludes all of it.
	pair := timerCost().Seconds()
	calls := float64(l.victim.calls)
	victimS := max(0, l.victim.busy.Seconds()-calls*pair/2)
	datapathS := t.self("trace.replay") + t.self("trace.decode_replay") - victimS - calls*pair
	p50, longest, critical := cells.summary()
	return map[string]float64{
		"graph.build_s":          t.self("graph.build"),
		"graph.adj_mib":          float64(adj) / mib,
		"kernels.live_s":         t.self("kernels.live"),
		"kernels.instructions":   float64(l.instructions),
		"trace.record_s":         t.self("trace.record"),
		"trace.llc_events":       float64(l.recordedEvents),
		"trace.bytes_per_event":  per(float64(l.streamBytes), l.recordedEvents),
		"trace.replay_s":         t.self("trace.replay"),
		"cache.llc_accesses":     float64(l.llc.Accesses),
		"cache.llc_misses":       float64(l.llc.Misses),
		"cache.llc_evictions":    float64(l.llc.Evictions),
		"cache.ns_per_event":     per(1e9*datapathS, l.replayedEvents),
		"policy.victim_s":        victimS,
		"policy.victim_calls":    float64(l.victim.calls),
		"policy.ns_per_victim":   per(1e9*victimS, l.victim.calls),
		"core.table_build_s":     t.self("core.table_build"),
		"core.table_mib":         float64(l.tableBytes) / mib,
		"core.linerefs_build_s":  t.self("core.linerefs_build"),
		"core.linerefs_mib":      float64(l.lineRefsBytes) / mib,
		"core.popt_lookups":      float64(l.lookups),
		"core.popt_ties":         float64(l.ties),
		"core.bytes_streamed":    float64(l.streamed),
		"corpus.publish_s":       t.self("corpus.publish"),
		"corpus.lookup_s":        t.self("corpus.lookup"),
		"trace.decode_replay_s":  t.self("trace.decode_replay"),
		"trace.container_mib":    float64(l.containerBytes) / mib,
		"trace.max_resident_kib": float64(l.maxResident) / 1024,
		"bench.cell_s.p50":       p50,
		"bench.cell_s.max":       longest,
		"bench.critical_share":   critical / untraced.WallS,
		"bench.pool_util":        untraced.CPUS / (untraced.WallS * float64(e.cfg.Workers)),
		"trace.span_coverage":    t.coverage("traced"),
		"trace.overhead_ratio":   t.total("traced") / untraced.WallS,
	}
}

// cellLog collects the untraced pass's sweep cells from Config.Progress.
type cellLog struct {
	mu sync.Mutex
	// sweeps holds each sweep's cell times; a sweep's first completion
	// (Done == 1) starts a new one. Sweeps run one after another.
	sweeps [][]time.Duration
}

func (c *cellLog) add(ev bench.CellEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ev.Done == 1 || len(c.sweeps) == 0 {
		c.sweeps = append(c.sweeps, nil)
	}
	c.sweeps[len(c.sweeps)-1] = append(c.sweeps[len(c.sweeps)-1], ev.Elapsed)
}

// summary returns the median and longest cell time, and the critical
// path: the sum over sweeps of each sweep's longest cell, a lower bound
// on the pass's wall time at any worker count.
func (c *cellLog) summary() (p50, longest, critical float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var all []float64
	for _, s := range c.sweeps {
		var m time.Duration
		for _, d := range s {
			all = append(all, d.Seconds())
			m = max(m, d)
		}
		critical += m.Seconds()
	}
	sort.Float64s(all)
	if len(all) > 0 {
		longest = all[len(all)-1]
	}
	return median(all), longest, critical
}

// references holds the reports recorded from the parent commit for seed
// 42 and one held-out seed, named <workload>-seed<N>.txt.
//
//go:embed testdata
var references embed.FS

// reference returns the recorded report of the workload for seed, if any.
func reference(workload string, seed int64) (string, bool) {
	data, err := references.ReadFile(fmt.Sprintf("testdata/%s-seed%d.txt", workload, seed))
	if err != nil {
		return "", false
	}
	return string(data), true
}
