// Command poptbench regenerates the paper's tables and figures.
//
// Usage:
//
//	poptbench -list
//	poptbench [-scale tiny|default|large] [-seed N] all
//	poptbench fig10 fig12a table4
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"popt/internal/bench"
	"popt/internal/corpus"
	"popt/internal/graph"
)

func main() {
	scale := flag.String("scale", "default", "input scale: tiny, default, or large")
	seed := flag.Int64("seed", 42, "generator seed")
	memstats := flag.Bool("memstats", false, "report resident bytes per shared artifact (suite adjacencies, merged transposes) and exit unless experiments are also named")
	list := flag.Bool("list", false, "list experiments and exit")
	format := flag.String("format", "table", "output format: table or csv")
	workers := flag.Int("j", 0, "sweep worker count: 0 = GOMAXPROCS, 1 = serial (output is identical at any count)")
	progress := flag.Bool("progress", false, "report per-cell completion and timing on stderr")
	noreplay := flag.Bool("noreplay", false, "disable reference-stream record/replay sharing (every cell re-executes its kernel; output is identical either way)")
	corpusDir := flag.String("corpus", "", "persist recorded reference streams as container files in this directory and replay from it; a warm corpus skips every record phase (output is identical either way)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit (go tool pprof)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "poptbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "poptbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "poptbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "poptbench: -memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := bench.DefaultConfig()
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.NoReplay = *noreplay
	if *corpusDir != "" {
		store, err := corpus.Open(*corpusDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "poptbench: -corpus: %v\n", err)
			os.Exit(1)
		}
		defer store.Close()
		cfg.Corpus = store
	}
	if *progress {
		// One mutex serializes all three heartbeat sources (cell
		// completions arrive serialized, but phase events come straight
		// from sweep workers) so stderr lines never interleave.
		var mu sync.Mutex
		cfg.Progress = func(ev bench.CellEvent) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(os.Stderr, "[%d/%d] %s (%s)\n", ev.Done, ev.Total, ev.Key, ev.Elapsed.Round(time.Microsecond))
		}
		cfg.PhaseProgress = func(ev bench.PhaseEvent) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(os.Stderr, "  %s %s (%s)\n", ev.Phase, ev.Key, ev.Elapsed.Round(time.Microsecond))
		}
		graph.SuiteProgress = func(g *graph.Graph, elapsed time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(os.Stderr, "  built %v (%s)\n", g, elapsed.Round(time.Millisecond))
		}
	}
	switch *scale {
	case "tiny":
		cfg.Scale = graph.ScaleTiny
	case "default":
		cfg.Scale = graph.ScaleDefault
	case "large":
		cfg.Scale = graph.ScaleLarge
	default:
		fmt.Fprintf(os.Stderr, "poptbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *memstats {
		rep := bench.MemStats(cfg)
		if *format == "csv" {
			fmt.Printf("# %s: %s\n%s\n", rep.ID, rep.Title, rep.CSV())
		} else {
			fmt.Println(rep.String())
		}
	}

	ids := flag.Args()
	if len(ids) == 0 {
		if *memstats {
			return
		}
		fmt.Fprintln(os.Stderr, "poptbench: name experiments to run (or 'all'); -list shows them")
		os.Exit(2)
	}
	var exps []bench.Experiment
	if len(ids) == 1 && ids[0] == "all" {
		exps = bench.Registry()
	} else {
		for _, id := range ids {
			e, ok := bench.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "poptbench: unknown experiment %q\n", id)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}
	for _, e := range exps {
		start := time.Now()
		rep := e.Run(cfg)
		if *format == "csv" {
			fmt.Printf("# %s: %s\n%s\n", rep.ID, rep.Title, rep.CSV())
		} else {
			fmt.Println(rep.String())
			fmt.Printf("(%s completed in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
}
