// Package stack assembles the middleware the paper describes — query server,
// scheduling graph, data store, page space and disk farm — on either
// runtime. It is the only place the stack is wired: the public mqsched
// facade, the experiment harness (Virtual Microscope and volume apps alike)
// and the commands all build through Assemble, so the one part an
// application changes is its query.App.
package stack

import (
	"fmt"
	"strings"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/datastore"
	"mqsched/internal/disk"
	"mqsched/internal/metrics"
	"mqsched/internal/pagespace"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/sched"
	"mqsched/internal/server"
	"mqsched/internal/sim"
	"mqsched/internal/trace"
	"mqsched/internal/vm"
)

// Mode selects the execution substrate.
type Mode int

const (
	// Simulated runs on deterministic virtual time (experiments).
	Simulated Mode = iota
	// Real runs on goroutines and wall-clock time with actual pixel data.
	Real
)

// CombinedBeta is the SJF weight of the "combined" strategy.
const CombinedBeta = 0.5

// Config declares every knob of the assembled stack. Zero fields take the
// documented defaults.
type Config struct {
	// Mode selects the substrate (default Simulated).
	Mode Mode
	// Policy is the ranking strategy: one of sched.Names() — the paper's
	// fifo, muf, ff, cf, cnbf, sjf plus the data-driven batch executor — or
	// one of the future-work strategies combined, autotune and ra (ra probes
	// CPU utilization, so it needs the simulated runtime). Default cf.
	Policy string
	// CFAlpha is the α of the cf strategy (default 0.2, the paper's
	// setting).
	CFAlpha float64
	// BatchStarvation tunes the batch policy's aging blend back toward
	// arrival order: 0 keeps sched.DefaultBatchStarvation, negative disables
	// aging entirely (pure data-hotness order, starvation-prone). Ignored by
	// every other policy.
	BatchStarvation float64
	// BatchMaxGroup caps the queries one batch dispatch claims together
	// (0 = server.DefaultBatchMaxGroup). Ignored by every other policy.
	BatchMaxGroup int
	// Threads is the query-thread pool size (default 4).
	Threads int
	// CPUs is the simulated SMP's processor count (default 24; ignored on
	// the real runtime).
	CPUs int
	// Disks is the disk farm size (default 4).
	Disks int
	// IOSched selects the per-spindle service discipline: disk.SchedFIFO
	// (default, the paper's one-page-at-a-time behaviour) or
	// disk.SchedElevator (per-disk reordering and multi-page merges).
	IOSched disk.Sched
	// IOBatchPages caps distinct pages per merged elevator transfer (0 =
	// the farm's default of 16; ignored under FIFO).
	IOBatchPages int
	// IOMaxDelay bounds elevator reordering: a request is bypassed by at
	// most this many dispatches (0 = the farm's default of 8, negative =
	// unbounded; ignored under FIFO).
	IOMaxDelay int
	// DSBudget is the data store memory in bytes (default 64 MB; -1
	// disables result caching).
	DSBudget int64
	// DSPolicy selects the data store's cache policy: "lru" (default, the
	// paper's cache-everything/evict-by-recency data store) or "cost"
	// (benefit-aware eviction, admission control with a ghost list, and
	// proactive materialization of hot parent aggregates).
	DSPolicy string
	// DSMaterializeLimit bounds concurrent proactive-materialization queries
	// under the cost policy (0 = the server's default of 2, negative
	// disables acting on hints).
	DSMaterializeLimit int
	// PSBudget is the page space memory in bytes (default 32 MB).
	PSBudget int64
	// PSPrefetchLimit caps concurrent background page fetches in the page
	// space (0 = the manager's default of 2x the spindle count, negative =
	// unlimited). Hints beyond the cap are dropped, never queued.
	PSPrefetchLimit int
	// DisablePSDedup turns off the page space's in-flight duplicate
	// elimination (ablation A2).
	DisablePSDedup bool
	// TimeScale compresses modelled hardware times on the real runtime
	// (default 0.02).
	TimeScale float64
	// App overrides the application (default: the Virtual Microscope).
	App query.App
	// DisableBlocking stops queries from stalling on overlapping executing
	// queries; by default they block to avoid duplicate I/O (ablation A3
	// turns it off).
	DisableBlocking bool
	// Trace turns on the span tracer, exactly as TraceSpans does; it names
	// the intent of callers that render the schedule (trace.Tracer.Gantt,
	// Summary).
	Trace bool
	// TraceSpans records per-query span trees (server, sched, data store,
	// page space, disk) — exportable as Chrome trace_event JSON and feeding
	// the slow-query log. When false the span layer costs one nil check per
	// instrumentation site.
	TraceSpans bool
	// TraceCapacity bounds the span ring buffer (default 16384 spans;
	// ignored unless Trace or TraceSpans is set).
	TraceCapacity int
	// SlowQueryThreshold marks root spans slower than this duration
	// (runtime clock) as slow queries; see trace.TracerOptions.
	SlowQueryThreshold time.Duration
	// SlowQueryPercentile, in (0,100) e.g. 99, marks root spans slower than
	// this trailing percentile of recent responses as slow; see
	// trace.TracerOptions.
	SlowQueryPercentile float64
	// EnableMetrics registers every subsystem's counters, gauges, and latency
	// histograms on a metrics registry (Prometheus text format via
	// metrics.Registry.WritePrometheus). When false the instrumentation
	// costs one nil check per event.
	EnableMetrics bool
	// ComputeParallelism bounds the worker goroutines one query may fan its
	// raw-chunk computation across on the real runtime: 1 keeps the serial
	// per-query loop, 0 selects a GOMAXPROCS-derived default, n > 1 caps
	// the fan-out. Ignored on the simulated runtime.
	ComputeParallelism int
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = "cf"
	}
	if c.CFAlpha == 0 {
		c.CFAlpha = 0.2
	}
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.CPUs == 0 {
		c.CPUs = 24
	}
	if c.Disks == 0 {
		c.Disks = 4
	}
	if c.DSBudget == 0 {
		c.DSBudget = 64 << 20
	}
	if c.PSBudget == 0 {
		c.PSBudget = 32 << 20
	}
	return c
}

// validate rejects values no component can run with.
func (c Config) validate() error {
	switch {
	case c.Threads < 0:
		return fmt.Errorf("stack: %d query threads (want >= 1)", c.Threads)
	case c.Disks < 0:
		return fmt.Errorf("stack: %d disks (want >= 1)", c.Disks)
	case c.CPUs < 0:
		return fmt.Errorf("stack: %d CPUs (want >= 1)", c.CPUs)
	}
	return nil
}

// Stack is one assembled middleware instance.
type Stack struct {
	// Config is the configuration with defaults applied.
	Config Config
	// Runtime is the substrate every component runs on.
	Runtime rt.Runtime
	// Engine and Sim are the simulated runtime (nil on the real runtime).
	Engine *sim.Engine
	Sim    *rt.SimRuntime
	// Real is the wall-clock runtime (nil on the simulated runtime).
	Real *rt.RealRuntime

	Table     *dataset.Table
	App       query.App
	Policy    sched.Policy
	Farm      *disk.Farm
	PageSpace *pagespace.Manager
	// DataStore is nil when Config.DSBudget < 0.
	DataStore *datastore.Manager
	Graph     *sched.Graph
	Server    *server.Server

	// Spans is nil unless Config.Trace or Config.TraceSpans is set, and
	// Metrics unless Config.EnableMetrics is.
	Spans   *trace.Tracer
	Metrics *metrics.Registry
}

// Assemble builds the stack over table. gen produces raw page payloads on
// the real runtime and is unused on the simulated one, which elides them.
func Assemble(cfg Config, table *dataset.Table, gen disk.Generator) (*Stack, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Stack{Config: cfg, Table: table, App: cfg.App}
	switch cfg.Mode {
	case Simulated:
		s.Engine = sim.New()
		s.Sim = rt.NewSim(s.Engine, cfg.CPUs)
		s.Runtime = s.Sim
		gen = nil
	case Real:
		s.Real = rt.NewReal(rt.RealOptions{TimeScale: cfg.TimeScale})
		s.Runtime = s.Real
	default:
		return nil, fmt.Errorf("stack: unknown mode %d", cfg.Mode)
	}
	if s.App == nil {
		s.App = vm.New(table)
	}
	var err error
	if s.Policy, err = s.policy(); err != nil {
		return nil, err
	}
	var dsPolicy datastore.Policy
	if cfg.DSBudget >= 0 {
		if dsPolicy, err = datastore.ParsePolicy(cfg.DSPolicy); err != nil {
			return nil, fmt.Errorf("stack: %w", err)
		}
	}

	if cfg.EnableMetrics {
		s.Metrics = metrics.NewRegistry()
	}
	s.Farm = disk.NewFarm(s.Runtime, disk.Config{
		Disks:         cfg.Disks,
		Sched:         cfg.IOSched,
		MaxBatchPages: cfg.IOBatchPages,
		MaxDelay:      cfg.IOMaxDelay,
	}, gen)
	s.Farm.UseMetrics(s.Metrics)
	s.PageSpace = pagespace.New(s.Runtime, table, s.Farm, pagespace.Options{
		Budget:        cfg.PSBudget,
		DisableDedup:  cfg.DisablePSDedup,
		PrefetchLimit: cfg.PSPrefetchLimit,
		Metrics:       s.Metrics,
	})
	if cfg.DSBudget >= 0 {
		s.DataStore = datastore.New(s.App, datastore.Options{
			Budget:  cfg.DSBudget,
			Policy:  dsPolicy,
			Metrics: s.Metrics,
		})
	}
	if cfg.Trace || cfg.TraceSpans {
		s.Spans = trace.NewTracer(s.Runtime.Now, trace.TracerOptions{
			Capacity:       cfg.TraceCapacity,
			SlowThreshold:  cfg.SlowQueryThreshold,
			SlowPercentile: cfg.SlowQueryPercentile,
		})
	}
	s.Graph = sched.New(s.Runtime, s.App, s.Policy)
	s.Graph.UseMetrics(s.Metrics)
	s.Server = server.New(s.Runtime, s.App, s.Graph, s.DataStore, s.PageSpace, server.Options{
		Threads:            cfg.Threads,
		BlockOnExecuting:   !cfg.DisableBlocking,
		ComputeParallelism: cfg.ComputeParallelism,
		MaterializeLimit:   cfg.DSMaterializeLimit,
		BatchMaxGroup:      cfg.BatchMaxGroup,
		Spans:              s.Spans,
		Metrics:            s.Metrics,
	})
	return s, nil
}

// extensionPolicies are the future-work strategies Assemble builds on top of
// sched.ByName's set.
var extensionPolicies = []string{"combined", "autotune", "ra"}

// PolicyNames lists every strategy name Config.Policy accepts.
func PolicyNames() []string { return append(sched.Names(), extensionPolicies...) }

// policy resolves Config.Policy against the stack's application.
func (s *Stack) policy() (sched.Policy, error) {
	cfg := s.Config
	switch cfg.Policy {
	case "combined":
		return sched.Combined{App: s.App, Beta: CombinedBeta}, nil
	case "autotune":
		return sched.NewAutoTune(sched.AllPolicies(s.App), 0, 0), nil
	case "ra":
		if s.Sim == nil {
			return nil, fmt.Errorf("stack: policy ra needs the simulated runtime (it probes CPU utilization)")
		}
		cpu, _ := s.App.(sched.CPUCostEstimator)
		return sched.ResourceAware{
			App: s.App,
			CPU: cpu,
			Probe: func() (float64, float64) {
				return s.Sim.CPUUtilization(), s.Farm.Utilization()
			},
		}, nil
	}
	p, ok := sched.ByName(cfg.Policy, s.App)
	if !ok {
		return nil, fmt.Errorf("stack: unknown policy %q (want %s)", cfg.Policy, strings.Join(PolicyNames(), ", "))
	}
	switch p := p.(type) {
	case sched.CF:
		p.Alpha = cfg.CFAlpha
		return p, nil
	case sched.Batch:
		switch {
		case cfg.BatchStarvation > 0:
			p.Starvation = cfg.BatchStarvation
		case cfg.BatchStarvation < 0:
			p.Starvation = 0
		}
		return p, nil
	}
	return p, nil
}
