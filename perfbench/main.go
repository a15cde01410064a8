// Command perfbench is the simulator's benchmark. It runs one named
// workload (see workloads.go) and prints its metrics, with the last line
// of standard output one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 it measures end to end: it runs the workload again and
// again, each time in a fresh process, until -seconds have passed (and at
// least three times), and reports the medians of wall_s, cpu_s,
// peak_rss_mib and setup_s. With -trace 1 one fresh process runs the
// workload once untraced and once layer by layer under spans, and reports
// the per-layer metrics; the spans are written to the work directory.
//
// Every run's reports are checked: against the reference recorded for
// the seed when testdata holds one, else against the run's first
// repetition, and corpus-warm's against an in-memory pr-zoo run of the
// same seed. Each mismatched report row, failed fidelity check or crashed
// process counts as one failed operation.
//
// Build and run it from the repository root with the launcher:
//
//	python3 perfbench/run.py --workload pr-zoo --seed 42 --seconds 15 --trace 0
//
// The launcher leaves the binary in .bench_build/perfbench; a reference
// report is regenerated with
//
//	.bench_build/perfbench/perfbench -workload pr-zoo -seed 42 -child report > perfbench/testdata/pr-zoo-seed42.txt
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"popt/internal/bench"
)

const (
	minReps = 3
	// runBudget bounds one benchmark invocation: no repetition starts
	// once the longest one so far would end past it, and every child is
	// killed at it.
	runBudget = 165 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload name: pr-zoo, popt-quant, corpus-warm or tiny-all")
	seed := flag.Int64("seed", 42, "input generator seed")
	seconds := flag.Int("seconds", 15, "how long to keep repeating the workload")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workDir := flag.String("work-dir", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and span dumps")
	child := flag.String("child", "", "run one repetition in this process: run, traced, or report (print the report alone, as testdata records it)")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		os.Exit(2)
	}
	var err error
	switch *child {
	case "":
		err = parent(w, *seed, time.Duration(*seconds)*time.Second, *traceMode == 1, *workDir)
	case "run", "traced", "report":
		err = runChild(w, *seed, *child, *workDir)
	default:
		err = fmt.Errorf("unknown -child mode %q", *child)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// childResult is what one child process reports on its last stdout line.
type childResult struct {
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	Report    string             `json:"report"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`

	peakRSSMiB float64 // from the parent's wait
}

// config is the workload's bench configuration: the public defaults at
// the workload's scale, with one sweep worker per CPU.
func config(w workload, seed int64) bench.Config {
	c := bench.DefaultConfig()
	c.Scale = w.scale
	c.Seed = seed
	c.Workers = runtime.NumCPU()
	return c
}

// runChild is one repetition: set-up, then the timed pass (and, in traced
// mode, the traced pass), reported as a childResult.
func runChild(w workload, seed int64, mode, workDir string) error {
	traced := mode == "traced"
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "rep-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{cfg: config(w, seed), dir: dir}
	var t *tracer
	if traced {
		t = newTracer()
	}
	start := time.Now()
	if err := setup(w, e, t); err != nil {
		return err
	}
	res := childResult{SetupS: time.Since(start).Seconds()}

	var cells cellLog
	if traced {
		e.cfg.Progress = cells.add
	}
	cpu0 := cpuSeconds()
	start = time.Now()
	reps := w.run(e)
	res.WallS = time.Since(start).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	res.Report = renderText(reps)

	if traced {
		e.cfg.Progress = nil
		// Return the untraced pass's memory before the traced pass builds
		// its own tables, so the two never add up.
		debug.FreeOSMemory()
		l := &layers{t: t}
		var again []*bench.Report
		t.do("traced", func() { again = w.traced(e, l) })
		for _, r := range again {
			l.check(sameRows(find(reps, r.ID), r), "traced %s report differs from the untraced one", r.ID)
		}
		coverage := t.coverage("traced")
		l.check(coverage >= 0.95, "spans cover only %.1f%% of the traced pass", 100*coverage)
		res.Metrics = layerMetrics(e, l, &cells, res)
		res.Attempted, res.Failed = l.attempted, l.failed
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
		if err := t.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if mode == "report" {
		fmt.Print(res.Report)
		return nil
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func find(reps []*bench.Report, id string) *bench.Report {
	for _, r := range reps {
		if r.ID == id {
			return r
		}
	}
	return nil
}

// sameRows reports whether want's rows and notes are those of got: every
// row equal, and want's notes a suffix of got's (a re-rendered report
// carries only the notes derived from results).
func sameRows(got, want *bench.Report) bool {
	if got == nil || len(got.Rows) != len(want.Rows) || len(got.Notes) < len(want.Notes) {
		return false
	}
	for i := range want.Rows {
		if strings.Join(got.Rows[i], ",") != strings.Join(want.Rows[i], ",") {
			return false
		}
	}
	off := len(got.Notes) - len(want.Notes)
	for i, n := range want.Notes {
		if got.Notes[off+i] != n {
			return false
		}
	}
	return true
}

// renderText renders reports as poptbench -format csv does, with notes,
// and with table4's host wall-clock figures masked: its columns after the
// graph name, and the numbers in its notes, differ from run to run.
func renderText(reps []*bench.Report) string {
	var sb strings.Builder
	for _, r := range reps {
		if r.ID == "table4" {
			r = maskTimes(r)
		}
		fmt.Fprintf(&sb, "# %s: %s\n", r.ID, r.Title)
		for _, n := range r.Notes {
			fmt.Fprintf(&sb, "#   %s\n", n)
		}
		sb.WriteString(r.CSV())
	}
	return sb.String()
}

var number = regexp.MustCompile(`[0-9][0-9.]*`)

// maskTimes returns a copy of r with every cell after the first and
// every number in the notes replaced by "*".
func maskTimes(r *bench.Report) *bench.Report {
	m := *r
	m.Notes, m.Rows = nil, nil
	for _, n := range r.Notes {
		m.Notes = append(m.Notes, number.ReplaceAllString(n, "*"))
	}
	for _, row := range r.Rows {
		masked := []string{row[0]}
		for range row[1:] {
			masked = append(masked, "*")
		}
		m.Rows = append(m.Rows, masked)
	}
	return &m
}

// cpuSeconds returns this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// parent runs the benchmark's repetitions as child processes and prints
// the metrics.
func parent(w workload, seed int64, seconds time.Duration, traced bool, workDir string) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(runBudget))
	defer cancel()
	spawn := func(wl workload, mode string) (childResult, error) {
		return spawnChild(ctx, self, wl, seed, mode, workDir)
	}
	nproc, memMiB := runtime.NumCPU(), memTotalMiB()
	fmt.Printf("perfbench %s seed=%d trace=%v host: nproc=%d mem_total_mib=%d\n", w.name, seed, traced, nproc, memMiB)

	var ops opCount
	want, haveRef := reference(w.name, seed)
	if traced {
		res, err := spawn(w, "traced")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced run: %v\n", err)
			ops.crash()
			res.Metrics = map[string]float64{}
		} else {
			ops.attempted += res.Attempted
			ops.failed += res.Failed
			if haveRef {
				ops.rows(res.Report, want, "reference")
			} else {
				ops.rows(res.Report, res.Report, "itself")
			}
		}
		for _, m := range layerMetricDefs {
			fmt.Printf("%-24s %14.6g %s\n", m.Name, res.Metrics[m.Name], m.Unit)
		}
		return printResult(ops, res.Metrics, layerMetricDefs)
	}

	// corpus-warm must reproduce the in-memory pr-zoo report exactly: an
	// independent path to the same numbers.
	var cross string
	if w.corpus {
		zoo, _ := findWorkload("pr-zoo")
		res, err := spawn(zoo, "run")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: pr-zoo cross-check run: %v\n", err)
			ops.crash()
		}
		cross = res.Report
	}
	var reps []childResult
	var longest time.Duration
	for n := 0; ; n++ {
		elapsed := time.Since(start)
		if n >= minReps && elapsed >= seconds {
			break
		}
		if n > 0 && elapsed+longest > runBudget {
			break
		}
		t0 := time.Now()
		res, err := spawn(w, "run")
		longest = max(longest, time.Since(t0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: repetition %d: %v\n", n, err)
			ops.crash()
			if len(reps) == 0 && n+1 >= minReps {
				break // every repetition so far failed
			}
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: repetition %d: setup %.3fs wall %.3fs cpu %.3fs peak %.1fMiB\n",
			n, res.SetupS, res.WallS, res.CPUS, res.peakRSSMiB)
		reps = append(reps, res)
	}
	if len(reps) > 0 {
		if !haveRef {
			want = reps[0].Report
		}
		for _, r := range reps {
			ops.rows(r.Report, want, "reference")
		}
		if w.corpus && cross != "" {
			ops.rows(reps[0].Report, cross, "pr-zoo")
		}
	}
	pick := func(f func(childResult) float64) float64 {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	metrics := map[string]float64{
		"wall_s":       pick(func(r childResult) float64 { return r.WallS }),
		"cpu_s":        pick(func(r childResult) float64 { return r.CPUS }),
		"peak_rss_mib": pick(func(r childResult) float64 { return r.peakRSSMiB }),
		"setup_s":      pick(func(r childResult) float64 { return r.SetupS }),
	}
	for _, m := range endToEndDefs {
		fmt.Printf("%-14s %12.6f %-4s (median of %d)\n", m.Name, metrics[m.Name], m.Unit, len(reps))
	}
	return printResult(ops, metrics, endToEndDefs)
}

// spawnChild runs one repetition of wl in a fresh process and returns its
// result with the process's peak resident memory. A child that crashes,
// is killed (the OOM killer, the run budget) or prints no result is an
// error.
func spawnChild(ctx context.Context, self string, wl workload, seed int64, mode, workDir string) (childResult, error) {
	cmd := exec.CommandContext(ctx, self, "-workload", wl.name, "-seed", fmt.Sprint(seed), "-child", mode, "-work-dir", workDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("%s %s: %w", wl.name, mode, err)
	}
	var res childResult
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return childResult{}, fmt.Errorf("%s %s: reading result: %w", wl.name, mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.peakRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, nil
}

// opCount tallies operations: report rows checked, fidelity checks and
// processes run.
type opCount struct{ attempted, failed int }

func (o *opCount) crash() { o.attempted++; o.failed++ }

// rows counts each row of want as an operation and each row of got that
// differs from it, or that holds a NaN or an infinity, as a failed one.
func (o *opCount) rows(got, want, against string) {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	bad := 0
	for i := range max(len(g), len(w)) {
		switch {
		case i >= len(g) || i >= len(w) || g[i] != w[i]:
			if bad == 0 {
				fmt.Fprintf(os.Stderr, "perfbench: report differs from %s at line %d\n", against, i+1)
			}
			bad++
		case strings.Contains(g[i], "NaN") || strings.Contains(g[i], "Inf"):
			bad++
		}
	}
	o.attempted += max(len(w), 1)
	o.failed += min(bad, max(len(w), 1))
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var endToEndDefs = []metricDef{{"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mib", "MiB"}, {"setup_s", "s"}}

// printResult prints the benchmark's result line.
func printResult(ops opCount, values map[string]float64, defs []metricDef) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		ms[d.Name] = metric{values[d.Name], d.Unit}
	}
	if ops.attempted == 0 {
		ops.crash()
	}
	fmt.Printf("failed share: %d/%d\n", ops.failed, ops.attempted)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{ops.failed == 0, ops.attempted, ops.failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// memTotalMiB reads the host's MemTotal, or 0 when it cannot.
func memTotalMiB() int {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kib int
		if _, err := fmt.Sscanf(line, "MemTotal: %d kB", &kib); err == nil {
			return kib / 1024
		}
	}
	return 0
}
