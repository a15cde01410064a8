// Command popttrace manages the persistent trace corpus: container files
// holding chunked reference streams that poptbench records once and
// replays across processes (poptbench -corpus).
//
// Usage:
//
//	popttrace record -corpus DIR [-scale tiny|default|large] [-seed N] [-kernels PR,CC,...]
//	popttrace ls -corpus DIR
//	popttrace info FILE...
//	popttrace verify -corpus DIR | popttrace verify FILE...
//	popttrace rechunk [-chunkbytes N] SRC DST
//
// record pre-warms a corpus with the suite streams the experiment
// drivers look up (one LRU-recorded LLC stream per kernel × suite
// graph); ls and info summarize containers from their footers; verify
// walks every chunk (CRC plus structural scan) and cross-checks the
// footer statistics; rechunk rewrites a container with a different chunk
// size without re-running any kernel.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"popt/internal/bench"
	"popt/internal/corpus"
	"popt/internal/graph"
	"popt/internal/kernels"
	"popt/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "record":
		err = cmdRecord(args)
	case "ls":
		err = cmdLs(args)
	case "info":
		err = cmdInfo(args)
	case "verify":
		err = cmdVerify(args)
	case "rechunk":
		err = cmdRechunk(args)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "popttrace: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "popttrace %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  popttrace record -corpus DIR [-scale S] [-seed N] [-kernels LIST]
  popttrace ls -corpus DIR
  popttrace info FILE...
  popttrace verify -corpus DIR | popttrace verify FILE...
  popttrace rechunk [-chunkbytes N] SRC DST
`)
}

func parseScale(s string) (graph.Scale, error) {
	switch s {
	case "tiny":
		return graph.ScaleTiny, nil
	case "default":
		return graph.ScaleDefault, nil
	case "large":
		return graph.ScaleLarge, nil
	}
	return 0, fmt.Errorf("unknown scale %q", s)
}

// cmdRecord pre-warms a corpus with the (kernel × suite graph) streams
// under the exact keys the sweep drivers look up: workload = graph name,
// schedule = kernel builder name, scale/seed from the config. Recording
// uses the LRU setup; the stream is policy-independent, so which setup
// records is irrelevant (golden-tested in the bench package).
func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	dir := fs.String("corpus", "", "corpus directory (required)")
	scale := fs.String("scale", "default", "input scale: tiny, default, or large")
	seed := fs.Int64("seed", 42, "generator seed")
	kernelList := fs.String("kernels", "", "comma-separated kernel names (default: all)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("-corpus is required")
	}
	sc, err := parseScale(*scale)
	if err != nil {
		return err
	}
	store, err := corpus.Open(*dir)
	if err != nil {
		return err
	}
	defer store.Close()

	builders := kernels.All()
	if *kernelList != "" {
		want := make(map[string]bool)
		for _, n := range strings.Split(*kernelList, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var sel []kernels.Builder
		for _, b := range builders {
			if want[b.Name] {
				sel = append(sel, b)
				delete(want, b.Name)
			}
		}
		for n := range want {
			return fmt.Errorf("unknown kernel %q", n)
		}
		builders = sel
	}

	cfg := bench.DefaultConfig()
	cfg.Scale = sc
	cfg.Seed = *seed
	cfg.Corpus = store
	for _, g := range cfg.Suite() {
		for _, b := range builders {
			key := cfg.StreamKey(g, b.Name)
			if ent := store.Lookup(key); ent != nil {
				fmt.Printf("have   %s/%s (%d events, %d chunks)\n", g.Name, b.Name, ent.Reader().Events(), ent.Reader().Chunks())
				continue
			}
			start := time.Now()
			_, ent, err := bench.RecordLLCToCorpus(cfg, b.New(g), bench.LRUSetup(), key)
			if err != nil {
				return fmt.Errorf("recording %s/%s: %w", g.Name, b.Name, err)
			}
			fmt.Printf("record %s/%s (%d events, %d chunks, %d bytes, %s)\n",
				g.Name, b.Name, ent.Reader().Events(), ent.Reader().Chunks(), ent.Size,
				time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

func kindName(k byte) string {
	if k == trace.KindLLC {
		return "llc"
	}
	return fmt.Sprintf("0x%02x", k)
}

func cmdLs(args []string) error {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	dir := fs.String("corpus", "", "corpus directory (required)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("-corpus is required")
	}
	store, err := corpus.Open(*dir)
	if err != nil {
		return err
	}
	defer store.Close()
	items, err := store.Manifest()
	if err != nil {
		return err
	}
	fmt.Printf("%-5s %12s %10s %7s  %s\n", "kind", "events", "size", "chunks", "key")
	bad := 0
	for _, it := range items {
		if it.Err != nil {
			bad++
			fmt.Printf("%-5s %12s %10s %7s  %s: %v\n", "??", "-", "-", "-", it.File, it.Err)
			continue
		}
		fmt.Printf("%-5s %12d %10d %7d  %s/%s/%s/%d\n",
			kindName(it.Kind), it.Events, it.Size, it.Chunks,
			it.Key.Workload, it.Key.Schedule, it.Key.Scale, it.Key.Seed)
	}
	fmt.Printf("%d entries, %d unreadable\n", len(items), bad)
	if bad > 0 {
		return fmt.Errorf("%d unreadable entries", bad)
	}
	return nil
}

func cmdInfo(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("name container files")
	}
	for _, path := range args {
		r, closer, err := corpus.OpenFile(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		m := r.Meta()
		fmt.Printf("%s:\n", path)
		fmt.Printf("  kind      %s\n", kindName(r.Kind()))
		fmt.Printf("  key       %s/%s/%s/%d\n", m.Workload, m.Schedule, m.Scale, m.Seed)
		fmt.Printf("  size      %s (%s payload, %s max chunk)\n",
			bench.HumanBytes(uint64(r.Size())), bench.HumanBytes(uint64(r.PayloadBytes())),
			bench.HumanBytes(uint64(r.MaxChunkBytes())))
		fmt.Printf("  windows   %s\n", r.WindowMode())
		fmt.Printf("  chunks    %d\n", r.Chunks())
		fmt.Printf("  events    %d\n", r.Events())
		fmt.Printf("  crc       %08x\n", r.StreamCRC())
		instructions, l1, l2, s, _ := r.LLCTotals()
		fmt.Printf("  instrs    %d\n", instructions)
		fmt.Printf("  llc-in    %d accesses, %d writebacks\n", s.Accesses, s.Writebacks)
		fmt.Printf("  l1        %+v\n", l1)
		fmt.Printf("  l2        %+v\n", l2)
		closer.Close()
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("corpus", "", "verify every entry of this corpus directory")
	fs.Parse(args)
	paths := fs.Args()
	if *dir != "" {
		store, err := corpus.Open(*dir)
		if err != nil {
			return err
		}
		items, err := store.Manifest()
		store.Close()
		if err != nil {
			return err
		}
		// Unreadable entries stay in the list: the per-file pass below
		// reports their open error as a verification failure.
		for _, it := range items {
			paths = append(paths, *dir+string(os.PathSeparator)+it.File)
		}
	}
	if len(paths) == 0 {
		return fmt.Errorf("nothing to verify: name files or pass -corpus DIR")
	}
	failed := 0
	for _, path := range paths {
		r, closer, err := corpus.OpenFile(path)
		if err != nil {
			failed++
			fmt.Printf("FAIL %s: %v\n", path, err)
			continue
		}
		if err := r.Verify(); err != nil {
			failed++
			fmt.Printf("FAIL %s: %v\n", path, err)
		} else {
			fmt.Printf("ok   %s (%d chunks, %d events)\n", path, r.Chunks(), r.Events())
		}
		closer.Close()
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d containers failed verification", failed, len(paths))
	}
	return nil
}

func cmdRechunk(args []string) error {
	fs := flag.NewFlagSet("rechunk", flag.ExitOnError)
	chunkBytes := fs.Int("chunkbytes", trace.DefaultChunkBytes, "target chunk payload size in bytes")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: popttrace rechunk [-chunkbytes N] SRC DST")
	}
	src, dst := fs.Arg(0), fs.Arg(1)
	r, closer, err := corpus.OpenFile(src)
	if err != nil {
		return fmt.Errorf("%s: %w", src, err)
	}
	defer closer.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if err := r.Rechunk(out, *chunkBytes); err != nil {
		out.Close()
		os.Remove(dst)
		return fmt.Errorf("rechunking %s: %w", src, err)
	}
	if err := out.Close(); err != nil {
		return err
	}
	nr, ncloser, err := corpus.OpenFile(dst)
	if err != nil {
		return fmt.Errorf("reopening %s: %w", dst, err)
	}
	defer ncloser.Close()
	fmt.Printf("%s: %d chunks (%d bytes) -> %s: %d chunks (%d bytes)\n",
		src, r.Chunks(), r.Size(), dst, nr.Chunks(), nr.Size())
	return nil
}
