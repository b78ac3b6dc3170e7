package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mqsched"
	"mqsched/internal/dataset"
	"mqsched/internal/disk"
	"mqsched/internal/geom"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/vm"
)

// Every workload runs the library defaults (cf ranking, lru data store, FIFO
// disks, 4 query threads) except for the two cache budgets, which are cut so
// that both caches are smaller than the working set.
const (
	timeScale = 0.02
	dsBudget  = 32 << 20
	psBudget  = 16 << 20
	numDisks  = 4 // the disk farm's default size
)

// slides are three 30000² slides, as in the paper.
func slides() []mqsched.Slide {
	return []mqsched.Slide{
		{Name: "slide1", Width: 30000, Height: 30000},
		{Name: "slide2", Width: 30000, Height: 30000},
		{Name: "slide3", Width: 30000, Height: 30000},
	}
}

func systemConfig() mqsched.Config {
	return mqsched.Config{
		Mode:      mqsched.Real,
		Policy:    "cf",
		Threads:   4,
		TimeScale: timeScale,
		DSBudget:  dsBudget,
		PSBudget:  psBudget,
	}
}

// newSystem assembles the in-process stack. With sm non-nil the application
// and the page generator are wrapped so that sm times their calls; with sm
// nil the program runs exactly as a library user would assemble it.
func newSystem(sm *seams) (*mqsched.System, error) {
	cfg := systemConfig()
	table := mqsched.NewSlideTable(slides()...)
	if sm == nil {
		return mqsched.New(cfg, table)
	}
	cfg.App = sm.app(vm.New(table))
	return mqsched.NewWithGenerator(cfg, table, sm.generator(vm.GeneratePage))
}

// seams accumulates the time spent behind the layers' public seams: the
// application (query.App), the page reads it makes inside ComputeRaw
// (query.PageReader) and page generation (disk.Generator). Times are in
// nanoseconds.
type seams struct {
	overlap, project, gen, read, compute atomic.Int64
	computeBytes                         atomic.Int64
	// untimed counts ComputeRaw calls whose PageReader did not implement
	// every optional reader interface and so was passed on unwrapped.
	untimed atomic.Int64
}

func (s *seams) fields() []*atomic.Int64 {
	return []*atomic.Int64{&s.overlap, &s.project, &s.gen, &s.read, &s.compute, &s.computeBytes, &s.untimed}
}

func (s *seams) reset() {
	for _, v := range s.fields() {
		v.Store(0)
	}
}

// add accumulates o's totals into s.
func (s *seams) add(o *seams) {
	of := o.fields()
	for i, v := range s.fields() {
		v.Add(of[i].Load())
	}
}

func (s *seams) app(inner *vm.App) query.App { return &tracedApp{App: inner, s: s} }

func (s *seams) generator(gen disk.Generator) disk.Generator {
	return func(l *dataset.Layout, page int) []byte {
		t := time.Now()
		b := gen(l, page)
		s.gen.Add(int64(time.Since(t)))
		return b
	}
}

// tracedApp times the VM application's operators. Embedding *vm.App keeps
// its whole method set, so every optional interface the program looks for
// (query.ParallelComputer, query.Aggregator, the QCPUCost estimator) still
// reaches the application.
type tracedApp struct {
	*vm.App
	s *seams
}

func (a *tracedApp) Cmp(x, y query.Meta) bool {
	t := time.Now()
	r := a.App.Cmp(x, y)
	a.s.overlap.Add(int64(time.Since(t)))
	return r
}

func (a *tracedApp) Overlap(src, dst query.Meta) float64 {
	t := time.Now()
	r := a.App.Overlap(src, dst)
	a.s.overlap.Add(int64(time.Since(t)))
	return r
}

func (a *tracedApp) Project(ctx rt.Ctx, src *query.Blob, dst query.Meta, out *query.Blob) geom.Rect {
	t := time.Now()
	r := a.App.Project(ctx, src, dst, out)
	a.s.project.Add(int64(time.Since(t)))
	return r
}

// ComputeRaw splits the call's time into page reads (the union of the
// intervals in which a read was outstanding, since intra-query workers read
// concurrently) and compute (the rest).
func (a *tracedApp) ComputeRaw(ctx rt.Ctx, m query.Meta, outSub geom.Rect, out *query.Blob, pr query.PageReader) int64 {
	start := time.Now()
	log := &readLog{start: start}
	if full, ok := pr.(fullReader); ok {
		pr = timedReader{fullReader: full, log: log}
	} else {
		a.s.untimed.Add(1)
	}
	n := a.App.ComputeRaw(ctx, m, outSub, out, pr)
	total := time.Since(start)
	blocked := log.union()
	a.s.read.Add(int64(blocked))
	a.s.compute.Add(int64(total - blocked))
	a.s.computeBytes.Add(n)
	return n
}

// fullReader is every optional interface a PageReader may offer. The
// program's readers (the page space manager and the server's span reader)
// implement all of them.
type fullReader interface {
	query.BatchReader
	query.Prefetcher
	query.BatchPrefetcher
}

// timedReader logs the interval of each read; the embedded reader supplies
// IOBatchPages, StartFetch and StartFetchBatch unchanged.
type timedReader struct {
	fullReader
	log *readLog
}

func (r timedReader) ReadPage(ctx rt.Ctx, ds string, page int) []byte {
	t := time.Now()
	b := r.fullReader.ReadPage(ctx, ds, page)
	r.log.add(t, time.Now())
	return b
}

func (r timedReader) ReadPages(ctx rt.Ctx, ds string, pages []int) [][]byte {
	t := time.Now()
	b := r.fullReader.ReadPages(ctx, ds, pages)
	r.log.add(t, time.Now())
	return b
}

// readLog collects the read intervals of one ComputeRaw call, relative to
// its start.
type readLog struct {
	start time.Time
	mu    sync.Mutex
	spans []interval
}

type interval struct{ from, to time.Duration }

func (l *readLog) add(from, to time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, interval{from.Sub(l.start), to.Sub(l.start)})
	l.mu.Unlock()
}

func (l *readLog) union() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return unionLen(l.spans)
}

// unionLen is the total length covered by the spans, overlaps counted once.
func unionLen(spans []interval) time.Duration {
	s := append([]interval(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].from < s[j].from })
	var total time.Duration
	var cur interval
	for i, sp := range s {
		switch {
		case i == 0:
			cur = sp
		case sp.from > cur.to:
			total += cur.to - cur.from
			cur = sp
		case sp.to > cur.to:
			cur.to = sp.to
		}
	}
	if len(s) > 0 {
		total += cur.to - cur.from
	}
	return total
}
