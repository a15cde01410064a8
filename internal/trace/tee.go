package trace

import (
	"popt/internal/graph"
	"popt/internal/mem"
)

// Tee fans every event out to each sink in order. The sweep engine uses it
// to piggyback recording on the first live cell of a (workload, schedule):
// the cell's Sim and an LLCEncoder both see the one emitted stream.
type Tee struct {
	sinks []Sink
}

// NewTee builds a fan-out over sinks.
func NewTee(sinks ...Sink) *Tee {
	return &Tee{sinks: sinks}
}

// Access implements Sink.
//
//popt:hot
func (t *Tee) Access(acc mem.Access) {
	for _, s := range t.sinks {
		s.Access(acc)
	}
}

// SetVertex implements Sink.
//
//popt:hot
func (t *Tee) SetVertex(v graph.V) {
	for _, s := range t.sinks {
		s.SetVertex(v)
	}
}

// StartIteration implements Sink.
func (t *Tee) StartIteration() {
	for _, s := range t.sinks {
		s.StartIteration()
	}
}

// SetTile implements Sink.
func (t *Tee) SetTile(tile int) {
	for _, s := range t.sinks {
		s.SetTile(tile)
	}
}

// Tick implements Sink.
//
//popt:hot
func (t *Tee) Tick(n uint64) {
	for _, s := range t.sinks {
		s.Tick(n)
	}
}
