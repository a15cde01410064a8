// Package trace makes the simulator's LLC reference stream a first-class,
// replayable artifact. The paper's evaluation is trace-driven: Pin
// captures the reference stream the LLC observes once and every
// replacement policy replays that one stream. This package provides the
// equivalent plumbing: kernels emit a typed event stream (memory accesses,
// outer-loop progress for the update_index instruction, iteration and tile
// boundaries, instruction ticks) into a Sink; the live cache simulation is
// one sink (Sim), and an LLCEncoder teed behind it records the LLC-visible
// stream — the demand accesses that miss L2, the writebacks they push
// down, and the hook events between them — into a chunked container, on
// disk in the corpus or in a byte slice (LLCTrace). One Reader replays
// either into any LLC policy setup, so a stream captured once drives an
// entire policy zoo.
package trace

import (
	"popt/internal/graph"
	"popt/internal/mem"
)

// Sink consumes one kernel event stream. Implementations must treat each
// method call as one event in program order; the stream for a given
// (workload, schedule) is identical no matter which sink consumes it, which
// is what makes record/replay equivalent to live execution.
//
// Events:
//
//   - Access: one memory reference (the paper's ld/st stream).
//   - SetVertex: outer-loop progress, the update_index instruction P-OPT
//     and T-OPT consume.
//   - StartIteration: a fresh pass over the vertices begins (P-OPT's
//     streaming engine re-fetches the first Rereference Matrix column).
//   - SetTile: a CSR-segmented kernel moved to another tile.
//   - Tick: n non-memory instructions retired (the MPKI denominator,
//     together with one instruction per Access).
type Sink interface {
	Access(acc mem.Access)
	SetVertex(v graph.V)
	StartIteration()
	SetTile(t int)
	Tick(n uint64)
}

// Nop is a Sink that ignores every event. Embed it to implement only the
// events a sink cares about (the capture sinks in package analysis keep
// just the accesses).
type Nop struct{}

// Access implements Sink.
func (Nop) Access(mem.Access) {}

// SetVertex implements Sink.
func (Nop) SetVertex(graph.V) {}

// StartIteration implements Sink.
func (Nop) StartIteration() {}

// SetTile implements Sink.
func (Nop) SetTile(int) {}

// Tick implements Sink.
func (Nop) Tick(uint64) {}
