// Command graphgen generates, inspects, and converts input graphs.
//
// Usage:
//
//	graphgen -kind kron -n 131072 -deg 8 -o kron.poptg
//	graphgen -kind suite -scale default -o dir/          (writes all five)
//	graphgen -stats kron.poptg
//	graphgen -edges edges.txt -n 1000 -o mine.poptg
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"popt/internal/graph"
)

func main() {
	kind := flag.String("kind", "", "generator: kron, urand, powerlaw, community, mesh, suite")
	n := flag.Int("n", 1<<17, "vertex count (rows*cols for mesh)")
	deg := flag.Int("deg", 8, "average degree")
	seed := flag.Int64("seed", 42, "seed")
	scale := flag.String("scale", "default", "suite scale: tiny, default, large")
	out := flag.String("o", "", "output file (or directory for -kind suite)")
	stats := flag.String("stats", "", "print statistics of a serialized graph and exit")
	edges := flag.String("edges", "", "build from a 'src dst' edge-list file (requires -n)")
	mtx := flag.String("mtx", "", "build from a MatrixMarket coordinate file")
	progress := flag.Bool("progress", false, "report per-graph build timing on stderr (suite builds)")
	flag.Parse()

	if *progress {
		graph.SuiteProgress = func(g *graph.Graph, elapsed time.Duration) {
			fmt.Fprintf(os.Stderr, "built %v (%s)\n", g, elapsed.Round(time.Millisecond))
		}
	}

	s := graph.ScaleDefault
	switch *scale {
	case "tiny":
		s = graph.ScaleTiny
	case "large":
		s = graph.ScaleLarge
	}

	switch {
	case *stats != "":
		printStats(load(*stats))
	case *mtx != "":
		f, err := os.Open(*mtx)
		check(err)
		defer f.Close()
		g, err := graph.ParseMatrixMarket(f, filepath.Base(*mtx))
		check(err)
		save(g, *out)
	case *edges != "":
		f, err := os.Open(*edges)
		check(err)
		defer f.Close()
		g, err := graph.ParseEdgeList(f, filepath.Base(*edges), *n)
		check(err)
		save(g, *out)
	case *kind == "suite":
		for _, g := range graph.Suite(s, *seed) {
			save(g, filepath.Join(*out, g.Name+".poptg"))
		}
	case *kind != "":
		save(generate(*kind, *n, *deg, *seed), *out)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func generate(kind string, n, deg int, seed int64) *graph.Graph {
	switch kind {
	case "kron":
		scale := 0
		for 1<<scale < n {
			scale++
		}
		return graph.Kron(scale, deg, seed)
	case "urand":
		return graph.Uniform(n, n*deg, seed)
	case "powerlaw":
		return graph.PowerLaw(n, deg, 2.0, seed)
	case "community":
		return graph.Community(n, deg, 1024, 0.85, seed)
	case "mesh":
		side := 1
		for side*side < n {
			side++
		}
		return graph.Mesh(side, side)
	}
	fmt.Fprintf(os.Stderr, "graphgen: unknown kind %q\n", kind)
	os.Exit(2)
	return nil
}

func load(path string) *graph.Graph {
	f, err := os.Open(path)
	check(err)
	defer f.Close()
	g, err := graph.Read(f)
	check(err)
	return g
}

func save(g *graph.Graph, path string) {
	if path == "" {
		printStats(g)
		return
	}
	if dir := filepath.Dir(path); dir != "." {
		check(os.MkdirAll(dir, 0o755))
	}
	f, err := os.Create(path)
	check(err)
	defer f.Close()
	check(graph.Write(f, g))
	fmt.Printf("wrote %s: %v\n", path, g)
}

func printStats(g *graph.Graph) {
	check(g.Validate())
	maxDeg, at := g.MaxDegree()
	fmt.Printf("%v\n  max out-degree %d (vertex %d)\n  degree histogram (pow2 buckets): %v\n",
		g, maxDeg, at, g.DegreeHistogram())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}
