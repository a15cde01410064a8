package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"popt/internal/bench"
	"popt/internal/cache"
	"popt/internal/core"
	"popt/internal/kernels"
	"popt/internal/mem"
)

// span is one recorded call into a layer: its name, its interval in
// seconds since the tracer started, and the index of the span that was
// open when it began (-1 for a root).
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps the spans of one serial traced run in memory. The traced
// run is single-threaded, so the open spans form a stack and a new span's
// parent is the top of it.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// do records f as one span named name, nested under the span open at the
// call. A nil tracer just calls f.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent})
	t.open = append(t.open, i)
	defer func() {
		t.spans[i].End = t.now()
		t.open = t.open[:len(t.open)-1]
	}()
	f()
}

// total sums the durations of every span named name.
func (t *tracer) total(name string) float64 {
	var s float64
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.dur()
		}
	}
	return s
}

// self sums, over every span named name, its duration minus the part its
// direct children cover. Children of one span never overlap (the run is
// serial), so the covered part is the sum of their durations.
func (t *tracer) self(name string) float64 {
	child := make([]float64, len(t.spans))
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.dur()
		}
	}
	var s float64
	for i, sp := range t.spans {
		if sp.Name == name {
			s += sp.dur() - child[i]
		}
	}
	return s
}

// coverage returns the share of root span name's duration that its direct
// children cover.
func (t *tracer) coverage(name string) float64 {
	root := -1
	for i, sp := range t.spans {
		if sp.Name == name && sp.Parent < 0 {
			root = i
			break
		}
	}
	if root < 0 || t.spans[root].dur() == 0 {
		return 0
	}
	var covered float64
	for _, sp := range t.spans {
		if sp.Parent == root {
			covered += sp.dur()
		}
	}
	return covered / t.spans[root].dur()
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// victimStats accumulates the calls to and time spent in Victim across
// every timedPolicy that shares it.
type victimStats struct {
	calls uint64
	busy  time.Duration
}

// timerCost estimates what one time.Now plus time.Since costs, the price
// a timedPolicy adds to every Victim call: about half of it falls inside
// the measured interval and half outside. The least of a few trials
// estimates the cost on an unloaded CPU.
func timerCost() time.Duration {
	const n = 1 << 16
	best := time.Duration(1<<63 - 1)
	for trial := 0; trial < 5; trial++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			_ = time.Since(time.Now())
		}
		best = min(best, time.Since(start)/n)
	}
	return best
}

// timedPolicy sits in an LLC's policy seat and counts and times Victim.
// Every other method passes straight through, so the simulated behaviour
// is the wrapped policy's own; optional hook interfaces stay on the raw
// policy the setup returns as its hook, as with cache.NewCheckedPolicy.
type timedPolicy struct {
	cache.Policy
	st *victimStats
}

func (p *timedPolicy) Victim(set int, lines []cache.Line, acc mem.Access) int {
	start := time.Now()
	w := p.Policy.Victim(set, lines, acc)
	p.st.busy += time.Since(start)
	p.st.calls++
	return w
}

// timed returns s with its policy seat wrapped in a timedPolicy that
// reports into st.
func timed(s bench.Setup, st *victimStats) bench.Setup {
	return bench.Setup{Name: s.Name, Make: func(c bench.Config, w *kernels.Workload, cfg cache.Config) (cache.Policy, core.VertexIndexed, int) {
		pol, hook, reserve := s.Make(c, w, cfg)
		return &timedPolicy{Policy: pol, st: st}, hook, reserve
	}}
}
