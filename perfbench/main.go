// Command perfbench is the repository's benchmark. It runs one workload
// against the real-runtime stack from outside the program, checks sampled
// outputs against vm.RenderOracle, and prints its metrics; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 1200, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 the run is
// made twice, untraced and then with every layer seam timed, each pass taking
// half the seconds, and the metrics are the per-layer ones plus the tracing
// overhead (traced minus untraced end-to-end figures). See README.md for the
// workloads and metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload browse|scan|wire --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"mqsched"
)

type workloadFunc func(seed int64, seconds float64, sm *seams) (*outcome, error)

var workloads = map[string]workloadFunc{
	"browse": runBrowse,
	"scan":   runScan,
	"wire":   runWire,
}

// outcome is one pass of a workload.
type outcome struct {
	setup                []float64 // seconds, one per set-up
	latP50, latP95       float64   // ms
	throughput, capacity float64   // qps
	cpuMS                float64   // process CPU per completed query
	attempted            int
	failures             []string
	samples              []sample
	span                 layerSpan // the measured span
	probes               []probeOutcome
	rounds               []counts // scan: subsystem counts per round
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics a user of the system sees, and their units.
var endToEnd = map[string]string{
	"setup_s":          "s",
	"lat_p50_ms":       "ms",
	"lat_p95_ms":       "ms",
	"capacity_qps":     "qps",
	"throughput_qps":   "qps",
	"cpu_ms_per_query": "ms",
	"rss_peak_mb":      "MB",
}

// perLayer are the traced run's metrics and their units.
var perLayer = map[string]string{
	"sched.wait_ms_p50": "ms", "sched.wait_ms_p95": "ms",
	"sched.reranks_per_query": "count", "sched.overlap_us_per_query": "us",
	"server.exec_ms_p50": "ms", "server.exec_ms_p95": "ms",
	"server.blocks_per_query": "count", "server.full_hit_frac": "ratio",
	"datastore.reuse_frac": "ratio", "datastore.lookup_hit_frac": "ratio",
	"datastore.evictions_per_query": "count", "datastore.project_ms_per_query": "ms",
	"pagespace.hit_frac": "ratio", "pagespace.coalesce_frac": "ratio",
	"pagespace.evictions_per_query": "count", "pagespace.read_ms_per_query": "ms",
	"disk.reads_per_query": "count", "disk.service_ms_per_query": "ms", "disk.busy_frac": "ratio",
	"vm.gen_pages_per_query": "count", "vm.gen_ms_per_query": "ms", "vm.gen_cpu_frac": "ratio",
	"vm.compute_ms_per_query": "ms", "vm.compute_mb_per_s": "MB/s",
	"netproto.overhead_ms_p50": "ms", "netproto.overhead_ms_p95": "ms", "netproto.resp_kb_per_query": "KB",
	"cluster.spill_frac": "ratio", "cluster.imbalance": "ratio",
	"load.lag_ms_p95":  "ms",
	"proc.gc_cpu_frac": "ratio", "proc.alloc_mb_per_query": "MB",
	"trace.overhead.lat_p50_ms": "ms", "trace.overhead.lat_p95_ms": "ms",
	"trace.overhead.throughput_qps": "qps", "trace.overhead.cpu_ms_per_query": "ms",
}

func main() {
	workload := flag.String("workload", "", "workload to run: browse, scan or wire")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 30, "measured seconds per pass")
	traced := flag.Int("trace", 0, "1: add a traced pass and report the per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || flag.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(*workload, fn, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, fn workloadFunc, seed int64, seconds float64, traced bool) (*result, error) {
	bi := mqsched.BuildInfo()
	env, err := json.Marshal(map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "version": bi["version"], "timescale": timeScale,
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("env %s\n", env)

	// A traced run splits its seconds between the untraced and the traced
	// pass, so that it takes as long as an untraced run.
	if traced {
		seconds /= 2
	}
	o, err := fn(seed, seconds, nil)
	if err != nil {
		return nil, err
	}
	e2e := endToEndOf(o)
	faults := faultsOf(o)
	res := &result{Attempted: o.attempted, Metrics: map[string]metric{}}
	printTable("end-to-end", e2e, endToEnd)
	fmt.Printf("  %-32s %12.4f ratio\n", "fail_frac", ratio(float64(len(faults)), float64(o.attempted)))
	for _, p := range o.probes {
		fmt.Printf("  probe %6.1f qps: p95 %8.1f ms, failures %d, backlog %v\n", p.rate, p.p95MS, p.failures, p.backlog)
	}

	if !traced {
		for k, unit := range endToEnd {
			res.Metrics[k] = metric{e2e[k], unit}
		}
	} else {
		sm := &seams{}
		ot, err := fn(seed, seconds, sm)
		if err != nil {
			return nil, err
		}
		res.Attempted += ot.attempted
		faults = append(faults, faultsOf(ot)...)
		if n := sm.untimed.Load(); n > 0 {
			faults = append(faults, fmt.Sprintf("%d ComputeRaw calls got a PageReader the traced run could not time", n))
		}
		faults = append(faults, compareRounds(o.rounds, ot.rounds)...)
		layers, err := layerMetrics(ot.span)
		if err != nil {
			return nil, err
		}
		te2e := endToEndOf(ot)
		for _, k := range []string{"lat_p50_ms", "lat_p95_ms", "throughput_qps", "cpu_ms_per_query"} {
			layers["trace.overhead."+k] = te2e[k] - e2e[k]
		}
		printTable("traced end-to-end", te2e, endToEnd)
		printTable("per-layer", layers, perLayer)
		for k, unit := range perLayer {
			v, ok := layers[k]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s not computed", k)
			}
			res.Metrics[k] = metric{v, unit}
		}
	}
	for _, f := range faults[:min(len(faults), 10)] {
		fmt.Println("FAULT", f)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	res.Failed = len(faults)
	res.Correct = len(faults) == 0
	return res, nil
}

// endToEndOf derives the end-to-end metrics of a pass.
func endToEndOf(o *outcome) map[string]float64 {
	return map[string]float64{
		"setup_s":          median(o.setup),
		"lat_p50_ms":       o.latP50,
		"lat_p95_ms":       o.latP95,
		"capacity_qps":     o.capacity,
		"throughput_qps":   o.throughput,
		"cpu_ms_per_query": o.cpuMS,
		"rss_peak_mb":      peakRSSMB(),
	}
}

// faultsOf lists the pass's failed queries and oracle mismatches.
func faultsOf(o *outcome) []string {
	return append(append([]string(nil), o.failures...), checkOracle(o.samples)...)
}

// compareRounds checks that wrapping the layers left the program's work
// unchanged: each scan round's subsystem counts must be equal in the
// untraced and traced passes (over the rounds both completed). Other
// workloads record no rounds.
func compareRounds(a, b []counts) []string {
	var bad []string
	for i := 0; i < min(len(a), len(b)); i++ {
		for k, v := range a[i] {
			if scanCounted[k] && b[i][k] != v {
				bad = append(bad, fmt.Sprintf("scan round %d: %s is %d traced, %d untraced", i, k, b[i][k], v))
			}
		}
	}
	return bad
}

func printTable(title string, m map[string]float64, units map[string]string) {
	fmt.Println(title)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-32s %12.4f %s\n", k, m[k], units[k])
	}
}

// spanStart marks the beginning of a measured span.
type spanStart struct {
	t    time.Time
	c    counts
	proc procSample
	sm   *seams
}

func startSpan(stats func() counts, sm *seams) spanStart {
	if sm != nil {
		sm.reset()
	}
	return spanStart{t: time.Now(), c: stats(), proc: readProc(), sm: sm}
}

func (s spanStart) end(stats func() counts) layerSpan {
	return layerSpan{
		wall:   time.Since(s.t),
		counts: stats().minus(s.c),
		sm:     s.sm,
		proc:   readProc().minus(s.proc),
	}
}
