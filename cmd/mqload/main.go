// Command mqload is the production-traffic load generator: an open-loop,
// skewed query stream (Zipfian dataset and hotspot popularity, pan/zoom
// user sessions — internal/load) offered to a live mqserver over netproto
// at a sweep of arrival rates, reporting throughput-vs-offered-load with
// p50/p95/p99/max latency per strategy.
//
// Unlike cmd/mqdriver's closed-loop clients (the paper's 16-client
// emulation), arrivals come from a clock, so queueing delay under overload
// is measured instead of being absorbed by client back-pressure.
//
// Usage:
//
//	mqserver -addr :9123 -policy cnbf &
//	mqload -addr localhost:9123 -strategy cnbf -rates 25,50,100 \
//	       -duration 10s -warmup 2s -out BENCH_load.json
//
// -addr repeats (or takes a comma-separated list) to round-robin the stream
// across several servers client-side — or point it at one cmd/mqrouter and
// let the cluster route by region affinity instead.
//
// Repeat against servers running other policies with the same -out: the
// file accumulates one entry per strategy, which is what BENCH_load.json
// in the repository root records and CI's benchdiff gate compares against.
// With -record PATH, one JSON line per completed query (arrival offset,
// latency, server wait, reuse) is streamed to disk for offline analysis.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"mqsched"
	"mqsched/internal/load"
	"mqsched/internal/sched"
	"mqsched/internal/vm"
)

func main() {
	var addrs addrList
	flag.Var(&addrs, "addr", "mqserver or mqrouter address; repeat the flag or comma-separate to round-robin across servers (default localhost:9123)")
	var (
		strategy = flag.String("strategy", "", "label for this server's ranking strategy, normally one of "+strings.Join(sched.Names(), ", ")+" (required with -out)")
		slides   = flag.String("slides", "slide1:16384x16384,slide2:16384x16384,slide3:16384x16384", "comma-separated name:WxH slide list (must match the server)")
		users    = flag.Int("users", 1000, "simulated user sessions")
		rates    = flag.String("rates", "25,50,100", "comma-separated offered-load sweep, queries/sec")
		duration = flag.Duration("duration", 10*time.Second, "measured phase length per rate")
		warmup   = flag.Duration("warmup", 2*time.Second, "cache warmup excluded from statistics, per rate")
		arrival  = flag.String("arrival", "poisson", "arrival process: constant, poisson, burst")
		bFactor  = flag.Float64("burst-factor", 4, "burst on-phase rate multiplier")
		bOn      = flag.Duration("burst-on", time.Second, "burst on-phase length")
		bOff     = flag.Duration("burst-off", 4*time.Second, "burst off-phase length")
		zipfDS   = flag.Float64("zipf-dataset", 1.1, "Zipf exponent of dataset popularity (0 = uniform)")
		zipfHot  = flag.Float64("zipf-hotspot", 1.2, "Zipf exponent of hotspot popularity (0 = uniform)")
		zipfUser = flag.Float64("zipf-user", 0.6, "Zipf exponent of per-user activity (0 = uniform)")
		hotspots = flag.Int("hotspots", 4, "shared hotspots per dataset")
		outSide  = flag.Int64("outside", 512, "output image edge in pixels")
		opName   = flag.String("op", "subsample", "processing function")
		seed     = flag.Int64("seed", 1, "generator and arrival seed")
		workers  = flag.Int("workers", 64, "bounded worker pool / connection count")
		queueCap = flag.Int("queue", 65536, "arrival buffer; overflow counts as dropped")
		outPath  = flag.String("out", "", "JSON results path; an existing file accumulates strategies")
		recPath  = flag.String("record", "", "stream per-query JSON lines to this path")
	)
	flag.Parse()

	if len(addrs) == 0 {
		addrs = addrList{"localhost:9123"}
	}
	op, err := vm.ParseOp(*opName)
	if err != nil {
		usageError(err)
	}
	proc, err := load.ParseProcess(*arrival)
	if err != nil {
		usageError(err)
	}
	sweep, err := parseRates(*rates)
	if err != nil {
		usageError(err)
	}
	specs, err := mqsched.ParseSlides(*slides)
	if err != nil {
		usageError(err)
	}
	switch {
	case flag.NArg() > 0:
		usageError(fmt.Errorf("unexpected arguments %q", flag.Args()))
	case *duration <= 0:
		usageError(fmt.Errorf("duration %v must be positive", *duration))
	case *warmup < 0:
		usageError(fmt.Errorf("warmup %v must not be negative", *warmup))
	case *outPath != "" && *strategy == "":
		usageError(fmt.Errorf("-out needs -strategy to label the results"))
	}

	genCfg := load.GenConfig{
		Users:              *users,
		DatasetZipfS:       *zipfDS,
		HotspotsPerDataset: *hotspots,
		HotspotZipfS:       *zipfHot,
		UserZipfS:          *zipfUser,
		OutputSide:         *outSide,
		Op:                 op,
		Seed:               *seed,
	}
	if err := genCfg.Validate(); err != nil {
		usageError(err)
	}
	runCfg := load.RunnerConfig{
		Addrs:    addrs,
		Workers:  *workers,
		QueueCap: *queueCap,
		Warmup:   *warmup,
	}
	if err := runCfg.Validate(); err != nil {
		usageError(err)
	}
	if *recPath != "" {
		f, err := os.Create(*recPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runCfg.Record = f
	}
	table := mqsched.NewSlideTable(specs...)

	strat := strategyResult{Name: *strategy}
	if strat.Name == "" {
		strat.Name = "unlabeled"
	}
	fmt.Printf("mqload: %s, %d users, %s arrivals, sweep %v qps, %s + %s warmup per rate\n",
		strings.Join(addrs, ","), *users, proc, sweep, *duration, *warmup)
	for _, rate := range sweep {
		ar := load.ArrivalConfig{
			Process: proc, Rate: rate,
			BurstFactor: *bFactor, BurstOn: *bOn, BurstOff: *bOff,
			Seed: *seed,
		}
		if err := ar.Validate(); err != nil {
			usageError(err)
		}
		n := int(rate * (*warmup + *duration).Seconds())
		if n < 1 {
			usageError(fmt.Errorf("rate %v over %v yields no queries", rate, *warmup+*duration))
		}
		items := load.Build(genCfg, table, ar, n)
		res, err := load.Run(runCfg, items, rate)
		if err != nil {
			fatal(err)
		}
		pt := pointFrom(res)
		strat.Points = append(strat.Points, pt)
		fmt.Printf("  offered %6.1f qps: achieved %6.1f qps, p50 %7.1fms p95 %7.1fms p99 %7.1fms max %7.1fms, reuse %2.0f%%, %d errors, %d dropped\n",
			rate, pt.AchievedQPS, pt.Lat.P50, pt.Lat.P95, pt.Lat.P99, pt.Lat.Max, pt.MeanReuse*100, pt.Errors, pt.Dropped)
	}

	if *outPath != "" {
		file := loadFile{
			Benchmark: "mqload",
			Config: fileConfig{
				Users: *users, Arrival: proc.String(),
				ZipfDataset: *zipfDS, ZipfHotspot: *zipfHot, ZipfUser: *zipfUser,
				Hotspots: *hotspots, OutputSide: *outSide, Op: op.String(),
				Seed: *seed, WarmupS: warmup.Seconds(), DurationS: duration.Seconds(),
			},
		}
		if err := file.mergeFrom(*outPath); err != nil {
			fatal(err)
		}
		file.put(strat)
		if err := file.write(*outPath); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *outPath)
	}
}

// loadFile is the BENCH_load.json format: one strategies entry per labeled
// run, accumulated across invocations against differently-configured
// servers.
type loadFile struct {
	Benchmark  string           `json:"benchmark"`
	Config     fileConfig       `json:"config"`
	Strategies []strategyResult `json:"strategies"`
}

type fileConfig struct {
	Users       int     `json:"users"`
	Arrival     string  `json:"arrival"`
	ZipfDataset float64 `json:"zipf_dataset"`
	ZipfHotspot float64 `json:"zipf_hotspot"`
	ZipfUser    float64 `json:"zipf_user"`
	Hotspots    int     `json:"hotspots"`
	OutputSide  int64   `json:"output_side"`
	Op          string  `json:"op"`
	Seed        int64   `json:"seed"`
	WarmupS     float64 `json:"warmup_s"`
	DurationS   float64 `json:"duration_s"`
}

type strategyResult struct {
	Name   string  `json:"name"`
	Points []point `json:"points"`
}

type point struct {
	OfferedQPS  float64 `json:"offered_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	Sent        int     `json:"sent"`
	Completed   int     `json:"completed"`
	Dropped     int     `json:"dropped"`
	Errors      int     `json:"errors"`
	MeanReuse   float64 `json:"mean_reuse"`
	// ServerReusedFrac is the byte-weighted reuse fraction from the
	// server's output counters over the phase (0 when the scrape failed).
	ServerReusedFrac float64 `json:"server_reused_frac"`
	Lat              latMS   `json:"lat_ms"`
}

type latMS struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

func pointFrom(res load.Result) point {
	return point{
		OfferedQPS:       res.Offered,
		AchievedQPS:      round2(res.AchievedQPS),
		Sent:             res.Sent,
		Completed:        res.Completed,
		Dropped:          res.Dropped,
		Errors:           res.Errors,
		MeanReuse:        round2(res.MeanReuse),
		ServerReusedFrac: round2(res.ServerReusedFrac),
		Lat: latMS{
			P50:  round2(res.Latency.Quantile(50)),
			P95:  round2(res.Latency.Quantile(95)),
			P99:  round2(res.Latency.Quantile(99)),
			Max:  round2(res.Latency.Max()),
			Mean: round2(res.Latency.Mean()),
		},
	}
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

// mergeFrom pulls the strategies of an existing results file so repeated
// runs against different servers accumulate.
func (f *loadFile) mergeFrom(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var prev loadFile
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("mqload: existing %s is not a results file: %w", path, err)
	}
	if prev.Benchmark != "mqload" {
		return fmt.Errorf("mqload: existing %s holds benchmark %q, not mqload results", path, prev.Benchmark)
	}
	f.Strategies = prev.Strategies
	return nil
}

// put replaces or appends one strategy's results, keeping the file sorted
// by name for stable diffs.
func (f *loadFile) put(s strategyResult) {
	for i := range f.Strategies {
		if f.Strategies[i].Name == s.Name {
			f.Strategies[i] = s
			return
		}
	}
	f.Strategies = append(f.Strategies, s)
	sort.Slice(f.Strategies, func(i, j int) bool { return f.Strategies[i].Name < f.Strategies[j].Name })
}

func (f *loadFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %v", part, err)
		}
		if r <= 0 {
			return nil, fmt.Errorf("rate %v must be positive", r)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty rate sweep")
	}
	return out, nil
}

// addrList collects -addr values: the flag repeats, and each value may
// itself be a comma-separated list. Blank entries are usage errors.
type addrList []string

func (a *addrList) String() string { return strings.Join(*a, ",") }

func (a *addrList) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return fmt.Errorf("empty server address in -addr %q", v)
		}
		for _, prev := range *a {
			if prev == part {
				return fmt.Errorf("duplicate server address %q", part)
			}
		}
		*a = append(*a, part)
	}
	return nil
}

func usageError(err error) {
	fmt.Fprintln(os.Stderr, "mqload:", err)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mqload:", err)
	os.Exit(1)
}
