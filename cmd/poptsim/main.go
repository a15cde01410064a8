// Command poptsim runs a single (application, graph, policy) cache
// simulation and prints locality statistics and the modeled cycle
// breakdown.
//
// Usage:
//
//	poptsim -app PR -graph URAND -policy P-OPT [-scale default] [-seed 42]
//	poptsim -graph-file web.poptg -app CC -policy DRRIP
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"popt/internal/bench"
	"popt/internal/core"
	"popt/internal/graph"
	"popt/internal/kernels"
	"popt/internal/trace"
)

func main() {
	app := flag.String("app", "PR", "application: PR, CC, PR-Delta, Radii, MIS, BFS, SSSP")
	graphName := flag.String("graph", "URAND", "graph from the generated suite (prefix match: DBP, UK, KRON, URAND, HBUBL)")
	graphFile := flag.String("graph-file", "", "load a serialized graph instead of generating one")
	policy := flag.String("policy", "P-OPT", "LLC policy: LRU, DRRIP, SHiP-PC, SHiP-Mem, Hawkeye, T-OPT, P-OPT, P-OPT-SE, P-OPT-inter-only")
	scale := flag.String("scale", "default", "input scale: tiny, default, large")
	seed := flag.Int64("seed", 42, "generator seed")
	check := flag.Bool("check", false, "wrap the LLC policy in a runtime contract checker (panics on Policy-contract violations)")
	dumptrace := flag.Bool("dumptrace", false, "record the run's LLC-visible reference stream into an in-memory container and print its event counts and encoded event bytes")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit (go tool pprof)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail("-cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("-cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "poptsim: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "poptsim: -memprofile: %v\n", err)
			}
		}()
	}

	cfg := bench.DefaultConfig()
	cfg.Seed = *seed
	cfg.CheckPolicies = *check
	switch *scale {
	case "tiny":
		cfg.Scale = graph.ScaleTiny
	case "large":
		cfg.Scale = graph.ScaleLarge
	case "default":
	default:
		fail("unknown scale %q", *scale)
	}

	g := pickGraph(cfg, *graphName, *graphFile)
	builder := pickApp(*app)
	setup := pickPolicy(*policy)

	w := builder.New(g)
	fmt.Printf("app=%s graph=%s policy=%s\n", w.Name, g, setup.Name)
	var res bench.Result
	var tr *trace.LLCTrace
	if *dumptrace {
		res, tr = bench.RecordLLC(cfg, w, setup)
	} else {
		res = bench.RunWorkload(cfg, w, setup)
	}
	if err := w.Check(); err != nil {
		fail("result verification failed: %v", err)
	}
	fmt.Print(res.H.Summary())
	fmt.Printf("instructions=%d  LLC MPKI=%.2f\n", res.Instructions, res.MPKI())
	if res.Reserved > 0 {
		fmt.Printf("reserved LLC ways: %d\n", res.Reserved)
	}
	if res.Streamed > 0 {
		fmt.Printf("Rereference Matrix streamed: %d bytes, tie rate %.1f%%\n", res.Streamed, 100*res.TieRate)
	}
	fmt.Printf("modeled %v\n", res.Breakdown())
	if tr != nil {
		dumpTrace(tr)
	}
	fmt.Println("results verified against golden implementation: OK")
}

// dumpTrace prints the recorded LLC-visible stream's composition and
// encoding density (chunk payload bytes per event).
func dumpTrace(tr *trace.LLCTrace) {
	st := tr.Stats()
	fmt.Printf("llc trace: %d events in %d bytes (%.2f bytes/event)\n",
		st.Events(), tr.Size(), tr.BytesPerEvent())
	fmt.Printf("  accesses=%d (writes=%d)  writebacks=%d  vertexUpdates=%d\n",
		st.Accesses, st.Writes, st.Writebacks, st.VertexUpdates)
	fmt.Printf("  iterations=%d  tileSwitches=%d\n", st.Iterations, st.TileSwitches)
}

func pickGraph(cfg bench.Config, name, file string) *graph.Graph {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		g, err := graph.Read(f)
		if err != nil {
			fail("loading graph: %v", err)
		}
		return g
	}
	for _, g := range cfg.Suite() {
		if strings.HasPrefix(strings.ToUpper(g.Name), strings.ToUpper(name)) {
			return g
		}
	}
	fail("no suite graph matches %q (have DBP, UK, KRON, URAND, HBUBL)", name)
	return nil
}

func pickApp(name string) kernels.Builder {
	for _, b := range append(kernels.All(), kernels.Extensions()...) {
		if strings.EqualFold(b.Name, name) {
			return b
		}
	}
	fail("unknown app %q", name)
	return kernels.Builder{}
}

func pickPolicy(name string) bench.Setup {
	setups := []bench.Setup{
		bench.LRUSetup(), bench.DIPSetup(), bench.DRRIPSetup(), bench.SHiPPCSetup(), bench.SHiPMemSetup(),
		bench.HawkeyeSetup(), bench.SDBPSetup(), bench.TOPTSetup(),
		bench.POPTSetup(core.InterIntra, 8, true),
		bench.POPTSetup(core.InterOnly, 8, true),
		bench.POPTSetup(core.SingleEpoch, 8, true),
	}
	for _, s := range setups {
		if strings.EqualFold(s.Name, name) {
			return s
		}
	}
	fail("unknown policy %q", name)
	return bench.Setup{}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "poptsim: "+format+"\n", args...)
	os.Exit(1)
}
