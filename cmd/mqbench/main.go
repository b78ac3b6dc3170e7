// Command mqbench regenerates the paper's evaluation artifacts (every table
// and figure of §5) on the simulated runtime, printing aligned text tables
// and optionally CSV files.
//
// Usage:
//
//	mqbench -experiment=fig4 -op=subsample
//	mqbench -experiment=all -clients=16 -queries=16 -csv=out/
//
// Experiments: e1 (caching effect), fig4, fig5, fig6, fig7, a1 (CF alpha),
// a2 (PS dedup), a3 (blocking), a4 (chunk read-ahead), x1 (future-work
// strategies), x2 (browsing patterns), x3 (seed robustness), v1 (volume
// app), calibration, timeline (utilization sparklines), all (every one but
// timeline).
//
// -policy selects the strategy of -workload and -trace-out single runs and
// of the timeline; the sweeps choose their own strategies.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mqsched"
	"mqsched/internal/driver"
	"mqsched/internal/experiment"
	"mqsched/internal/stack"
	"mqsched/internal/traceviz"
	"mqsched/internal/vm"
)

func main() {
	var (
		expName  = flag.String("experiment", "all", "experiment id: e1, fig4, fig5, fig6, fig7, a1, a2, a3, a4, x1, x2, x3, v1, timeline, calibration, all")
		opName   = flag.String("op", "both", "VM implementation: subsample, average, both")
		clients  = flag.Int("clients", 16, "number of emulated clients")
		queries  = flag.Int("queries", 16, "queries per client")
		seed     = flag.Int64("seed", 1, "workload seed")
		slideSz  = flag.Int64("slide-side", 0, "slide edge in pixels (0 = the paper's 30000); small values keep -trace-out captures compact")
		csvDir   = flag.String("csv", "", "directory to write CSV copies of each table")
		dumpWl   = flag.String("dumpworkload", "", "write the generated workload (both ops) as JSON to this path and exit")
		loadWl   = flag.String("workload", "", "replay a saved workload (JSON) through a single run instead of an experiment sweep")
		traceOut = flag.String("trace-out", "", "run one traced configuration and write its span trees as Chrome trace_event JSON to this path (open in chrome://tracing or Perfetto)")
	)
	sc := stack.Config{Policy: "cnbf", Threads: 4, CPUs: 24, Disks: 4, DSPolicy: "lru"}
	flag.IntVar(&sc.CPUs, "cpus", sc.CPUs, "processors of the simulated SMP")
	flag.IntVar(&sc.Disks, "disks", sc.Disks, "spindles in the disk farm")
	flag.IntVar(&sc.PSPrefetchLimit, "psprefetch", 0, "cap on concurrent background page prefetches (0 = 2x spindles, negative = unlimited)")
	parseStack := stack.BindFlags(flag.CommandLine, &sc)
	flag.Parse()
	switch {
	case flag.NArg() > 0:
		usageError("unexpected arguments %q", flag.Args())
	case *clients < 1:
		usageError("-clients %d: need at least one client", *clients)
	case *queries < 1:
		usageError("-queries %d: need at least one query per client", *queries)
	case sc.Threads < 1:
		usageError("-threads %d: need at least one query thread", sc.Threads)
	case sc.CPUs < 1:
		usageError("-cpus %d: the simulated SMP needs a processor", sc.CPUs)
	case sc.Disks < 1:
		usageError("-disks %d: the farm needs a spindle", sc.Disks)
	case *dumpWl != "" && *loadWl != "":
		usageError("-dumpworkload and -workload are mutually exclusive")
	}

	ops, err := parseOps(*opName)
	if err != nil {
		fatal(err)
	}
	if err := parseStack(); err != nil {
		fatal(err)
	}
	base := experiment.Config{
		Config:           sc,
		Clients:          *clients,
		QueriesPerClient: *queries,
		Seed:             *seed,
		SlideSide:        *slideSz,
	}

	if *dumpWl != "" {
		if err := dumpWorkload(*dumpWl, base, ops[0]); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *dumpWl)
		return
	}

	if *loadWl != "" || *traceOut != "" {
		if err := replayWorkload(*loadWl, base, ops[0], *traceOut); err != nil {
			fatal(err)
		}
		return
	}

	start := time.Now()
	if *expName == "timeline" {
		for _, op := range ops {
			cfg := base
			cfg.Op = op
			rep, err := experiment.TimelineReport(cfg, nil)
			if err != nil {
				fatal(err)
			}
			fmt.Println(rep)
		}
		fmt.Printf("total wall time: %s\n", time.Since(start).Round(time.Millisecond))
		return
	}
	for _, spec := range selectExperiments(*expName) {
		for _, op := range ops {
			if spec.singleOp && op != ops[0] {
				continue // op-independent experiments run once
			}
			cfg := base
			cfg.Op = op
			tb, err := spec.run(cfg)
			if err != nil {
				fatal(err)
			}
			fmt.Println(tb.String())
			if *csvDir != "" {
				if err := writeCSV(*csvDir, spec.id, op, spec.singleOp, &tb); err != nil {
					fatal(err)
				}
			}
		}
	}
	fmt.Printf("total wall time: %s\n", time.Since(start).Round(time.Millisecond))
}

type spec struct {
	id       string
	singleOp bool // experiment already covers both ops internally
	run      func(experiment.Config) (experiment.Table, error)
}

func selectExperiments(name string) []spec {
	all := []spec{
		{"e1", true, func(c experiment.Config) (experiment.Table, error) { return experiment.CachingEffect(c) }},
		{"fig4", false, func(c experiment.Config) (experiment.Table, error) { return experiment.ResponseVsThreads(c, nil) }},
		{"fig5", false, func(c experiment.Config) (experiment.Table, error) { return experiment.OverlapVsMemory(c, nil) }},
		{"fig6", false, func(c experiment.Config) (experiment.Table, error) { return experiment.ResponseVsMemory(c, nil) }},
		{"fig7", false, func(c experiment.Config) (experiment.Table, error) { return experiment.BatchVsMemory(c, nil) }},
		{"a1", false, func(c experiment.Config) (experiment.Table, error) { return experiment.CFAlphaAblation(c, nil) }},
		{"a2", false, func(c experiment.Config) (experiment.Table, error) { return experiment.PageSpaceAblation(c) }},
		{"a3", false, func(c experiment.Config) (experiment.Table, error) { return experiment.BlockingAblation(c) }},
		{"a4", false, func(c experiment.Config) (experiment.Table, error) { return experiment.PrefetchAblation(c, nil) }},
		{"x2", false, func(c experiment.Config) (experiment.Table, error) { return experiment.WorkloadSensitivity(c) }},
		{"x3", false, func(c experiment.Config) (experiment.Table, error) { return experiment.SeedSensitivity(c, nil) }},
		{"x1", false, func(c experiment.Config) (experiment.Table, error) { return experiment.ExtensionsComparison(c) }},
		{"v1", true, func(c experiment.Config) (experiment.Table, error) { return experiment.VolumeComparison(c) }},
		{"calibration", true, func(c experiment.Config) (experiment.Table, error) { return experiment.Calibration(c) }},
	}
	if name == "all" {
		return all
	}
	for _, s := range all {
		if s.id == name {
			return []spec{s}
		}
	}
	fatal(fmt.Errorf("unknown experiment %q (want e1, fig4..fig7, a1..a4, x1..x3, v1, calibration, timeline, all)", name))
	return nil
}

func parseOps(name string) ([]vm.Op, error) {
	switch name {
	case "both":
		return []vm.Op{vm.Subsample, vm.Average}, nil
	default:
		op, err := vm.ParseOp(name)
		if err != nil {
			return nil, err
		}
		return []vm.Op{op}, nil
	}
}

func writeCSV(dir, id string, op vm.Op, singleOp bool, tb *experiment.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := id
	if !singleOp {
		name += "_" + strings.ReplaceAll(op.String(), " ", "_")
	}
	return os.WriteFile(filepath.Join(dir, name+".csv"), []byte(tb.CSV()), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mqbench:", err)
	os.Exit(1)
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mqbench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// dumpWorkload writes the workload an experiment would run, for inspection
// or replay.
func dumpWorkload(path string, base experiment.Config, op vm.Op) error {
	table := driver.PaperSlides()
	queries := driver.Generate(driver.WorkloadConfig{
		Clients:          base.Clients,
		QueriesPerClient: base.QueriesPerClient,
		Op:               op,
		Seed:             base.Seed,
	}, table)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return driver.SaveWorkload(f, queries)
}

// replayWorkload runs one configuration to completion — replaying a saved
// workload when path is non-empty, generating one from the base config
// otherwise — and prints the headline numbers, the span-derived per-strategy
// latency breakdown, and the structured end-of-run metrics summary (every
// subsystem counter, gauge, and latency histogram from the unified
// registry). When traceOut is non-empty the span trees are written there as
// Chrome trace_event JSON.
func replayWorkload(path string, base experiment.Config, op vm.Op, traceOut string) error {
	var queries [][]vm.Meta
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		queries, err = driver.LoadWorkload(f, driver.PaperSlides())
		if err != nil {
			return err
		}
	}
	cfg := base
	cfg.Op = op
	cfg.EnableMetrics = true
	cfg.TraceSpans = true
	cfg.TraceCapacity = experiment.FullRunSpans
	m, err := experiment.RunWorkload(cfg, queries)
	if err != nil {
		return err
	}
	verb := "replayed"
	if path == "" {
		verb = "ran"
	}
	fmt.Printf("%s %d queries under %s: trimmed response %.3fs, mean wait %.3fs, overlap %.3f, makespan %.1fs\n",
		verb, m.Queries, m.Policy, m.TrimmedResponse, m.MeanWait, m.AvgOverlap, m.Makespan)
	// Output-side throughput makes kernel-level wins visible in workload
	// runs, not just microbenchmarks: reused bytes came from projecting
	// cached results, computed bytes from the raw-chunk kernels.
	if m.Makespan > 0 {
		const mb = 1 << 20
		fmt.Printf("throughput: %.2f queries/s, output %.1f MB/s reused + %.1f MB/s computed\n",
			float64(m.Queries)/m.Makespan,
			float64(m.Server.ReusedOutputBytes)/mb/m.Makespan,
			float64(m.Server.ComputedOutputBytes)/mb/m.Makespan)
	}
	if d := m.Disk; d.Batches > 0 {
		fmt.Printf("disk elevator: %d batches (%.2f pages/batch), %d merged reads, max reorder %d\n",
			d.Batches, float64(d.BatchPagesSum)/float64(d.Batches), d.MergedReads, d.MaxReorder)
	}
	fmt.Print("\n", spanBreakdown(m))
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := m.Spans.WriteChromeInfo(f, mqsched.BuildInfo()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d spans (%d dropped) to %s\n", m.Spans.Len(), m.Spans.Dropped(), traceOut)
	}
	fmt.Println("\nend-of-run metrics:")
	fmt.Print(m.Registry.Summary())
	return nil
}

// spanBreakdown renders the traced run's per-strategy latency breakdown
// (traceviz.Breakdown) and says what it covers: the queries whose span
// trees the ring still holds whole, against the queries run, and how many
// spans the ring dropped.
func spanBreakdown(m experiment.Metrics) string {
	bs := traceviz.Breakdown(traceviz.LoadSpans("run", m.Spans.Spans(), nil))
	covered := 0
	for _, s := range bs {
		covered += s.Queries - s.Truncated
	}
	var b strings.Builder
	fmt.Fprintf(&b, "span breakdown (seconds, simulated time) over %d of %d queries run; %d spans dropped\n",
		covered, m.Queries, m.Spans.Dropped())
	if len(bs) == 0 {
		b.WriteString("(no query spans)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-10s %7s %8s %8s %8s %8s | %8s %8s %8s %8s %8s %8s %8s\n",
		"strategy", "queries", "resp", "p50", "p95", "max",
		"wait", "io", "compute", "reuse", "batch", "fanout", "other")
	for _, s := range bs {
		p := s.MeanPhases
		fmt.Fprintf(&b, "%-10s %7d %8.3f %8.3f %8.3f %8.3f | %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n",
			s.Strategy, s.Queries-s.Truncated, s.MeanResp, s.P50, s.P95, s.MaxResp,
			p.Wait, p.IO, p.Compute, p.Reuse, p.Batch, p.Fanout, p.Other)
	}
	return b.String()
}
