// Package experiment runs the assembled stack (internal/stack) on the
// simulated runtime and reproduces the paper's evaluation (§5): one Run per
// configuration, plus a sweep function per table/figure. See DESIGN.md §5
// for the experiment index and EXPERIMENTS.md for recorded results.
package experiment

import (
	"fmt"

	"mqsched/internal/dataset"
	"mqsched/internal/datastore"
	"mqsched/internal/disk"
	"mqsched/internal/load"
	"mqsched/internal/metrics"
	"mqsched/internal/pagespace"
	"mqsched/internal/sched"
	"mqsched/internal/server"
	"mqsched/internal/stack"
	"mqsched/internal/trace"
	"mqsched/internal/vm"
)

// Config is one simulated run of the full system: the stack knobs plus the
// workload. Of the stack.Config fields, Mode must stay Simulated, each
// experiment supplies App, and Policy defaults to fifo here.
type Config struct {
	stack.Config
	// Op selects the VM implementation: Subsample (I/O-intensive) or
	// Average (balanced).
	Op vm.Op
	// Batch submits all queries at once (Figure 7); otherwise clients are
	// interactive (Figures 4-6).
	Batch bool
	// Clients / QueriesPerClient scale the workload (defaults 16 × 16, the
	// paper's 256 queries).
	Clients          int
	QueriesPerClient int
	// Seed drives workload generation.
	Seed int64
	// SlideSide overrides the dataset edge (default 30000 pixels).
	SlideSide int64
	// PrefetchDepth enables chunk read-ahead in the VM application
	// (ablation A4; 0 = the paper's synchronous reads).
	PrefetchDepth int
	// Browse selects the client browsing pattern (experiment X2; default
	// the paper's hotspot browse).
	Browse load.Mode
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = "fifo"
	}
	if c.Clients == 0 {
		c.Clients = 16
	}
	if c.QueriesPerClient == 0 {
		c.QueriesPerClient = 16
	}
	if c.SlideSide == 0 {
		c.SlideSide = load.PaperSlideSide
	}
	return c
}

// Metrics summarize one run.
type Metrics struct {
	Config Config
	Policy string

	// Response-time statistics in seconds (the paper's Figures 4 and 6 use
	// the 95%-trimmed mean of waiting + execution time).
	TrimmedResponse float64
	MeanResponse    float64
	MeanWait        float64
	MeanExec        float64

	// AvgOverlap is the mean per-query reused fraction (Figure 5).
	AvgOverlap float64
	// Makespan is the total execution time of the workload in seconds
	// (Figure 7 for batches).
	Makespan float64

	// Resource accounting.
	CPUBusySeconds  float64
	DiskBusySeconds float64
	CPUToIORatio    float64
	DiskUtilization float64

	// Subsystem counters.
	Server    server.Stats
	Disk      disk.Stats
	PageSpace pagespace.Stats
	DataStore datastore.Stats
	Graph     sched.GraphStats

	Queries int

	// Registry is the end-of-run snapshot of the unified metrics registry
	// when Config.EnableMetrics was set.
	Registry *metrics.Snapshot

	// Spans is the run's span tracer when Config.Trace or
	// Config.TraceSpans was set (export with WriteChrome, analyse with
	// internal/traceviz).
	Spans *trace.Tracer
}

// Run executes one configuration to completion on the simulated runtime,
// generating the workload from the configuration.
func Run(cfg Config) (Metrics, error) {
	return RunWorkload(cfg, nil)
}

// Slides is the run's dataset table: three SlideSide² slides.
func (c Config) Slides() *dataset.Table {
	return load.PaperSlides(c.withDefaults().SlideSide)
}

// Workload generates the run's client query lists over c.Slides().
func (c Config) Workload() [][]vm.Meta {
	c = c.withDefaults()
	return load.Generate(load.WorkloadConfig{
		Clients:          c.Clients,
		QueriesPerClient: c.QueriesPerClient,
		Op:               c.Op,
		Seed:             c.Seed,
		Mode:             c.Browse,
	}, c.Slides())
}

// vmStack assembles the simulated stack over cfg.Slides() served by the
// Virtual Microscope with cfg's read-ahead depth.
func vmStack(cfg Config) (*stack.Stack, error) {
	table := cfg.Slides()
	app := vm.New(table)
	app.PrefetchDepth = cfg.PrefetchDepth
	cfg.App = app
	return stack.Assemble(cfg.Config, table, nil)
}

// RunWorkload is Run with an explicit workload (per-client query lists over
// cfg.Slides(), e.g. loaded with load.LoadWorkload); pass nil to generate
// cfg.Workload().
func RunWorkload(cfg Config, queries [][]vm.Meta) (Metrics, error) {
	cfg = cfg.withDefaults()
	st, err := vmStack(cfg)
	if err != nil {
		return Metrics{}, err
	}
	cfg.Config = st.Config
	if queries == nil {
		queries = cfg.Workload()
	}
	answers, err := launch(st, paperClients(queries, cfg.Batch))
	if err != nil {
		return Metrics{}, fmt.Errorf("experiment %v: %w", cfg.Policy, err)
	}

	m := responseMetrics(answers)
	m.Config = cfg
	m.Policy = st.Policy.Name()
	m.CPUBusySeconds = st.Sim.CPUUtilization() * float64(cfg.CPUs) * st.Engine.Now().Seconds()
	m.DiskBusySeconds = st.Farm.Stats().ServiceSum.Seconds()
	if m.DiskBusySeconds > 0 {
		m.CPUToIORatio = m.CPUBusySeconds / m.DiskBusySeconds
	}
	m.DiskUtilization = st.Farm.Utilization()
	m.Server = st.Server.Stats()
	m.Disk = st.Farm.Stats()
	m.PageSpace = st.PageSpace.Stats()
	m.Graph = st.Graph.Stats()
	if st.DataStore != nil {
		m.DataStore = st.DataStore.Stats()
	}
	if st.Metrics != nil {
		snap := st.Metrics.Snapshot()
		m.Registry = &snap
	}
	m.Spans = st.Spans
	return m, nil
}

// Policies is the paper's presentation order.
var Policies = []string{"fifo", "muf", "ff", "cf", "cnbf", "sjf"}

// MB is a byte-count helper for budgets.
const MB = int64(1) << 20
