// Command mqserver runs the multi-query Virtual Microscope server live on
// TCP: real goroutines, real pixel data from synthetic slides, the full
// middleware stack (scheduling graph, data store, page space, disk farm
// model). Pair it with cmd/mqclient (single queries, PNG output) or
// cmd/mqdriver (emulated multi-client load).
//
// Usage:
//
//	mqserver -addr :9123 -slides slide1:16384x16384,slide2:8192x8192 -policy cnbf -threads 4
//
// Observability: every subsystem's counters, gauges, and per-strategy latency
// histograms are served in the Prometheus text format on -metrics
// (default :9124, path /metrics), and over the query connection via the
// METRICS verb. The same listener serves per-query span trees as Chrome
// trace_event JSON on /trace (open in chrome://tracing or Perfetto) and the
// Go runtime profiles on /debug/pprof/. Queries slower than -slowlog (or the
// -slowlog-pct trailing percentile) have their span trees printed to the log
// and are retrievable over the query connection via the TRACE verb.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"mqsched"
	"mqsched/internal/metrics"
	"mqsched/internal/netproto"
	"mqsched/internal/stack"
	"mqsched/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", ":9123", "listen address")
		slides    = flag.String("slides", "slide1:16384x16384,slide2:16384x16384,slide3:16384x16384", "comma-separated name:WxH slide list")
		dsMB      = flag.Int64("ds", 64, "data store MB (-1 disables caching)")
		psMB      = flag.Int64("ps", 32, "page space MB")
		metricsAt = flag.String("metrics", ":9124", "HTTP listen address for the /metrics, /trace, and /debug/pprof endpoints (empty disables)")
		traceCap  = flag.Int("trace-buffer", 16384, "span ring-buffer capacity (0 disables span tracing)")
	)
	cfg := mqsched.Config{Mode: mqsched.Real, Policy: "cf", Threads: 4, DSPolicy: "lru", TimeScale: 0.002, EnableMetrics: true}
	flag.IntVar(&cfg.DSMaterializeLimit, "ds-materialize", 0, "max concurrent proactive-materialization queries under -ds-policy=cost (0 = default 2, negative disables)")
	flag.Float64Var(&cfg.TimeScale, "timescale", cfg.TimeScale, "compression of modelled disk time")
	flag.IntVar(&cfg.ComputeParallelism, "compute-workers", 0, "intra-query compute worker bound (0 = GOMAXPROCS, 1 = serial per-query loop)")
	flag.DurationVar(&cfg.SlowQueryThreshold, "slowlog", 0, "log the span tree of queries slower than this (runtime clock; 0 disables the fixed threshold)")
	flag.Float64Var(&cfg.SlowQueryPercentile, "slowlog-pct", 0, "log queries slower than this trailing percentile of recent responses, e.g. 99 (0 disables)")
	parseStack := stack.BindFlags(flag.CommandLine, &cfg)
	flag.Parse()

	specs, err := parseSlides(*slides)
	if err != nil {
		log.Fatal(err)
	}
	if err := parseStack(); err != nil {
		log.Fatal(err)
	}
	cfg.DSBudget = *dsMB * (1 << 20)
	if *dsMB < 0 {
		cfg.DSBudget = -1
	}
	cfg.PSBudget = *psMB * (1 << 20)
	cfg.TraceSpans = *traceCap > 0
	cfg.TraceCapacity = *traceCap
	sys, err := mqsched.New(cfg, mqsched.NewSlideTable(specs...))
	if err != nil {
		log.Fatal(err)
	}

	if *metricsAt != "" {
		ml, err := net.Listen("tcp", *metricsAt)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("mqserver: metrics on http://%s/metrics, traces on /trace, profiles on /debug/pprof/", ml.Addr())
		go func() {
			log.Fatal(http.Serve(ml, metricsMux(sys.Metrics(), sys.Spans())))
		}()
	}
	if sys.Spans() != nil && (cfg.SlowQueryThreshold > 0 || cfg.SlowQueryPercentile > 0) {
		go logSlowQueries(sys.Spans())
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("mqserver: policy=%s threads=%d listening on %s", cfg.Policy, cfg.Threads, l.Addr())
	for _, s := range specs {
		log.Printf("  slide %s: %dx%d", s.Name, s.Width, s.Height)
	}
	if err := netproto.Serve(l, sys, log.Printf); err != nil {
		log.Fatal(err)
	}
}

// metricsMux serves the registry in the Prometheus text exposition format,
// the span ring buffer as Chrome trace_event JSON, and the net/http/pprof
// profile endpoints.
func metricsMux(reg *metrics.Registry, spans *trace.Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			log.Printf("mqserver: /metrics write: %v", err)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := spans.WriteChromeInfo(w, mqsched.BuildInfo()); err != nil {
			log.Printf("mqserver: /trace write: %v", err)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// logSlowQueries polls the tracer's slow-query log and prints each new
// entry's span tree.
func logSlowQueries(tr *trace.Tracer) {
	var since int64
	for {
		time.Sleep(time.Second)
		for _, e := range tr.SlowEntries(since) {
			log.Printf("mqserver: %s", e.Format())
			if e.Seq > since {
				since = e.Seq
			}
		}
	}
}

func parseSlides(s string) ([]mqsched.Slide, error) {
	var out []mqsched.Slide
	for _, part := range strings.Split(s, ",") {
		name, dims, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad slide spec %q (want name:WxH)", part)
		}
		ws, hs, ok := strings.Cut(dims, "x")
		if !ok {
			return nil, fmt.Errorf("bad slide dims %q (want WxH)", dims)
		}
		w, err := strconv.ParseInt(ws, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad slide width %q: %v", ws, err)
		}
		h, err := strconv.ParseInt(hs, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad slide height %q: %v", hs, err)
		}
		out = append(out, mqsched.Slide{Name: name, Width: w, Height: h})
	}
	return out, nil
}
