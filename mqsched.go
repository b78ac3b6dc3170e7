// Package mqsched is a multi-query scheduling middleware for data-analysis
// applications, reproducing "Scheduling Multiple Data Visualization Query
// Workloads on a Shared Memory Machine" (Andrade, Kurc, Sussman, Saltz;
// IPPS 2002).
//
// The system answers spatial range queries with user-defined processing over
// large 2-D datasets. Incoming queries enter a scheduling graph whose edges
// carry reuse weights (how many bytes of one query's result can be
// transformed into another's); a configurable ranking strategy (FIFO, MUF,
// FF, CF, CNBF, SJF) orders execution. Completed results are kept in a
// semantic cache (the data store manager) and projected onto later
// overlapping queries; raw data is read through a page-cache (the page space
// manager) over a modelled disk farm.
//
// Two execution substrates are provided:
//
//   - Simulated (deterministic virtual time): the default for experiments —
//     it reproduces the paper's 24-processor SMP with contended CPUs and
//     disks, machine-independently.
//   - Real (goroutines and wall-clock time, scaled): runs the same
//     middleware with actual pixel data; used by the examples and the TCP
//     demo server.
//
// Quickstart:
//
//	table := mqsched.NewSlideTable(mqsched.Slide{Name: "slide1", Width: 4096, Height: 4096})
//	sys, _ := mqsched.New(mqsched.Config{Mode: mqsched.Real, Policy: "cf"}, table)
//	sys.RunWith(func(ctx mqsched.Ctx) {
//	    t, _ := sys.Submit(mqsched.NewVMQuery("slide1", mqsched.R(0, 0, 1024, 1024), 4, mqsched.Subsample))
//	    res := t.Wait(ctx)
//	    fmt.Println(res.ResponseTime())
//	})
package mqsched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"

	"mqsched/internal/dataset"
	"mqsched/internal/datastore"
	"mqsched/internal/disk"
	"mqsched/internal/geom"
	"mqsched/internal/metrics"
	"mqsched/internal/pagespace"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/sched"
	"mqsched/internal/server"
	"mqsched/internal/stack"
	"mqsched/internal/trace"
	"mqsched/internal/vm"
)

// Re-exported core types. The full lower-level APIs live in the internal
// packages; this facade covers the common embedding path.
type (
	// Ctx is the execution context passed to client processes.
	Ctx = rt.Ctx
	// Meta is a query predicate.
	Meta = query.Meta
	// Result is a completed query's result and timings.
	Result = query.Result
	// Ticket is the handle for a submitted query.
	Ticket = server.Ticket
	// Rect is a half-open integer rectangle.
	Rect = geom.Rect
	// Op is a Virtual Microscope processing function.
	Op = vm.Op
	// VMQuery is a Virtual Microscope predicate.
	VMQuery = vm.Meta
	// App is the user-defined operator set (implement it to port a new
	// data-analysis application onto the middleware).
	App = query.App
)

// VM processing functions.
const (
	// Subsample returns every N-th pixel (I/O-intensive).
	Subsample = vm.Subsample
	// Average computes each output pixel as the mean of N×N inputs
	// (CPU/I/O balanced).
	Average = vm.Average
)

// R constructs a Rect.
func R(x0, y0, x1, y1 int64) Rect { return geom.R(x0, y0, x1, y1) }

// NewVMQuery builds a Virtual Microscope query: window (base-resolution
// pixels, zoom-aligned — see AlignRect), magnification reduction factor
// zoom, and processing function op.
func NewVMQuery(slide string, window Rect, zoom int64, op Op) VMQuery {
	return vm.NewMeta(slide, window, zoom, op)
}

// AlignRect expands r to zoom-aligned coordinates within bounds.
func AlignRect(r Rect, zoom int64, bounds Rect) Rect { return vm.AlignRect(r, zoom, bounds) }

// Slide describes one synthetic microscopy dataset.
type Slide struct {
	Name          string
	Width, Height int64
}

// ParseSlides parses a comma-separated name:WxH slide list, such as
// "slide1:16384x16384,slide2:8192x8192", rejecting malformed specs and
// non-positive sizes.
func ParseSlides(s string) ([]Slide, error) {
	var out []Slide
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
		if w < 1 || h < 1 {
			return nil, fmt.Errorf("slide %q dimensions must be positive", name)
		}
		out = append(out, Slide{Name: name, Width: w, Height: h})
	}
	return out, nil
}

// NewSlideTable registers slides (3-byte pixels, 64 KB pages).
func NewSlideTable(slides ...Slide) *dataset.Table {
	ls := make([]*dataset.Layout, len(slides))
	for i, s := range slides {
		ls[i] = vm.NewSlide(s.Name, s.Width, s.Height)
	}
	return dataset.NewTable(ls...)
}

// BuildInfo identifies this build: the module version (or VCS revision when
// built from a checkout), the Go toolchain, and the advertised ranking
// strategy set. It labels the mqsched_build_info gauge and the trace_info
// metadata of every Chrome trace export, so a captured collection records
// which build and strategy vocabulary produced it.
func BuildInfo() map[string]string {
	version := "dev"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			version = v
		}
		var rev string
		var dirty bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if dirty {
				rev += "+dirty"
			}
			version = rev
		}
	}
	return map[string]string{
		"version":    version,
		"go":         runtime.Version(),
		"strategies": strings.Join(sched.Names(), ","),
	}
}

// registerBuildInfo publishes the constant mqsched_build_info gauge (value
// 1, identity in the labels) on the registry, the Prometheus convention for
// exposing build identity to dashboards and to mqviz collection headers.
func registerBuildInfo(reg *metrics.Registry) {
	bi := BuildInfo()
	reg.Gauge("mqsched_build_info",
		"Build identity: constant 1, labelled with the build version, Go toolchain, and ranking strategy set.",
		metrics.L("version", bi["version"]),
		metrics.L("go", bi["go"]),
		metrics.L("strategies", bi["strategies"]),
	).Set(1)
}

// Mode selects the execution substrate.
type Mode = stack.Mode

const (
	// Simulated runs on deterministic virtual time (experiments).
	Simulated = stack.Simulated
	// Real runs on goroutines and wall-clock time with actual pixel data.
	Real = stack.Real
)

// Config configures a System; see stack.Config for every knob and its
// default. The zero Policy selects cf.
type Config = stack.Config

// System is an assembled query server with its substrates.
type System struct {
	st *stack.Stack

	cmu     sync.Mutex
	clients []rt.Gate // one per Start'ed process; Run closes after all open
}

// New assembles a system over the given datasets. On the real runtime the
// disk farm produces Virtual Microscope slide pages; embeddings of other
// applications use NewWithGenerator.
func New(cfg Config, table *dataset.Table) (*System, error) {
	return NewWithGenerator(cfg, table, vm.GeneratePage)
}

// NewWithGenerator is New with a custom page generator for the real runtime
// (the function producing raw chunk payloads for the configured App). The
// generator is unused on the simulated runtime.
func NewWithGenerator(cfg Config, table *dataset.Table, gen disk.Generator) (*System, error) {
	st, err := stack.Assemble(cfg, table, gen)
	if err != nil {
		return nil, err
	}
	if st.Metrics != nil {
		registerBuildInfo(st.Metrics)
	}
	return &System{st: st}, nil
}

// Submit enqueues a query.
func (s *System) Submit(m Meta) (*Ticket, error) { return s.st.Server.Submit(m) }

// Cancel abandons a query that has not started executing; see
// server.Server.Cancel.
func (s *System) Cancel(t *Ticket) bool { return s.st.Server.Cancel(t) }

// Start launches a client process. On the simulated runtime the process
// only executes once Run drives the virtual clock.
func (s *System) Start(name string, fn func(Ctx)) {
	g := s.st.Runtime.NewGate(name + " done")
	s.cmu.Lock()
	s.clients = append(s.clients, g)
	s.cmu.Unlock()
	s.st.Runtime.Spawn(name, func(ctx Ctx) {
		defer g.Open()
		fn(ctx)
	})
}

// Run drives the system to completion: every process launched with Start
// runs; once all of them finish the server shuts down and Run returns. On
// the simulated runtime this executes the virtual clock; on the real runtime
// it blocks until all goroutines exit.
func (s *System) Run() error {
	s.cmu.Lock()
	clients := append([]rt.Gate(nil), s.clients...)
	s.cmu.Unlock()
	s.st.Runtime.Spawn("mqsched-closer", func(ctx Ctx) {
		for _, g := range clients {
			g.Wait(ctx)
		}
		s.st.Server.Close()
	})
	if s.st.Engine != nil {
		return s.st.Engine.Run()
	}
	s.st.Real.Wait()
	return nil
}

// RunWith starts fn as the only client and runs to completion.
func (s *System) RunWith(fn func(Ctx)) error {
	s.Start("main", fn)
	return s.Run()
}

// Trace returns the span tracer, the same one Spans returns, for rendering
// the schedule (Gantt, Summary); nil unless Config.Trace or
// Config.TraceSpans was set.
func (s *System) Trace() *trace.Tracer { return s.st.Spans }

// Spans returns the span tracer (nil unless Config.Trace or
// Config.TraceSpans was set).
func (s *System) Spans() *trace.Tracer { return s.st.Spans }

// Metrics returns the unified metrics registry (nil unless
// Config.EnableMetrics was set).
func (s *System) Metrics() *metrics.Registry { return s.st.Metrics }

// Server exposes the underlying query server.
func (s *System) Server() *server.Server { return s.st.Server }

// Datasets exposes the registered dataset table.
func (s *System) Datasets() *dataset.Table { return s.st.Table }

// Stats bundles subsystem counters.
type Stats struct {
	Server    server.Stats
	Disk      disk.Stats
	PageSpace pagespace.Stats
	DataStore datastore.Stats
	Graph     sched.GraphStats
}

// Stats returns a snapshot of all subsystem counters.
func (s *System) Stats() Stats {
	st := Stats{
		Server:    s.st.Server.Stats(),
		Disk:      s.st.Farm.Stats(),
		PageSpace: s.st.PageSpace.Stats(),
		Graph:     s.st.Graph.Stats(),
	}
	if s.st.DataStore != nil {
		st.DataStore = s.st.DataStore.Stats()
	}
	return st
}
