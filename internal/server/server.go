// Package server implements the multithreaded query server engine: a
// fixed-size pool of query threads that dequeue from the scheduling graph,
// answer queries from cached intermediate results where possible (projecting
// via the application's transformation function), optionally block on
// overlapping results still being computed, and compute the uncovered
// remainder from raw data through the page space manager (paper §2, §4).
//
// A query executes as follows:
//
//  1. Look up the data store for complete or partial blobs; project each
//     useful candidate into the output and subtract the covered region.
//  2. If part of the output is still uncovered and an overlapping query is
//     EXECUTING, optionally block until it finishes and retry the lookup —
//     this avoids duplicate I/O at the price of a stall (the behaviour the
//     FF and CNBF ranking strategies reason about). Deadlock avoidance:
//     only block on producers that started executing earlier.
//  3. Compute the remaining sub-regions (the "sub-queries") from raw chunks.
//  4. Store the output image in the data store as an intermediate result and
//     move the node to CACHED (or remove it if it cannot be stored).
package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mqsched/internal/datastore"
	"mqsched/internal/geom"
	"mqsched/internal/metrics"
	"mqsched/internal/pagespace"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/sched"
	"mqsched/internal/trace"
)

// Options configure the server.
type Options struct {
	// Threads is the query-thread pool size ("typically the number of
	// processors available in the SMP"). Default 4.
	Threads int
	// MinReuseOverlap filters data store candidates: results with a smaller
	// overlap index are not projected. Default 0.01.
	MinReuseOverlap float64
	// BlockOnExecuting enables step 2 (waiting on overlapping EXECUTING
	// queries). Default true; ablation A3 turns it off.
	BlockOnExecuting bool
	// MinBlockOverlap is the minimum overlap index with an EXECUTING
	// producer that justifies stalling on it. Default 0.1.
	MinBlockOverlap float64
	// ComputeParallelism bounds the worker goroutines one query may fan its
	// raw-chunk computation across on the real runtime (intra-query
	// parallelism): 1 keeps the paper's serial per-query loop, 0 selects a
	// GOMAXPROCS-derived default, n > 1 caps the fan-out at n. The bound is
	// handed to the application via query.ParallelComputer (apps that don't
	// implement it stay serial) and also gates concurrent projection of
	// disjoint data-store candidates. The simulated runtime always executes
	// serially regardless.
	ComputeParallelism int
	// MaterializeLimit caps concurrent proactive-materialization queries
	// (parent aggregates the data store's cost policy hints; hints beyond
	// the cap are dropped and re-trigger later). 0 selects the default of 2;
	// negative disables hint consumption. Irrelevant under the default LRU
	// policy, which emits no hints.
	MaterializeLimit int
	// BatchMaxGroup caps the queries one batch-executor dispatch claims
	// together (the sched.Batch strategy only; other strategies always
	// dispatch query-at-a-time). 0 selects DefaultBatchMaxGroup.
	BatchMaxGroup int
	// Spans, when non-nil, records the per-query span tree (server exec
	// phases, sched wait, data store lookups, page space reads, disk I/O).
	// A nil tracer costs one nil check per span site and allocates nothing.
	Spans *trace.Tracer
	// Metrics, when non-nil, receives the server's counters and per-strategy
	// latency histograms (mqsched_server_*, labelled with the active ranking
	// strategy). A nil registry costs one nil check per event.
	Metrics *metrics.Registry
}

// srvMetrics are the registry handles; the zero value disables
// instrumentation.
type srvMetrics struct {
	submitted, completed, canceled *metrics.Counter
	fullHits, projections, blocks  *metrics.Counter
	rawBytes                       *metrics.Counter
	reusedBytes, computedBytes     *metrics.Counter
	materializations               *metrics.Counter
	response, wait                 *metrics.Histogram
	computeWorkers                 *metrics.Gauge

	// Batch-executor instrumentation, registered only when the batch
	// strategy is active (zero-value handles are nil-safe no-ops).
	batchGroupSize *metrics.Histogram
	batchFanout    *metrics.Counter
	batchQueueAge  *metrics.Histogram
}

func newSrvMetrics(reg *metrics.Registry, strategy string, batch bool) srvMetrics {
	if reg == nil {
		return srvMetrics{}
	}
	l := metrics.L("strategy", strategy)
	m := srvMetrics{
		submitted: reg.Counter("mqsched_server_submitted_total",
			"Queries accepted into the scheduling graph.", l),
		completed: reg.Counter("mqsched_server_completed_total",
			"Queries completed (throughput).", l),
		canceled: reg.Counter("mqsched_server_canceled_total",
			"Queries abandoned while still WAITING.", l),
		fullHits: reg.Counter("mqsched_server_full_hits_total",
			"Queries answered entirely from the data store.", l),
		projections: reg.Counter("mqsched_server_projections_total",
			"Cached results projected into outputs.", l),
		blocks: reg.Counter("mqsched_server_blocks_total",
			"Stalls on overlapping EXECUTING producers.", l),
		rawBytes: reg.Counter("mqsched_server_raw_bytes_total",
			"Input bytes requested from the page space manager.", l),
		reusedBytes: reg.Counter("mqsched_server_reused_output_bytes_total",
			"Output bytes produced by projecting cached results.", l),
		computedBytes: reg.Counter("mqsched_server_computed_output_bytes_total",
			"Output bytes produced from raw data.", l),
		materializations: reg.Counter("mqsched_server_materializations_total",
			"Proactive-materialization queries submitted on data store hints.", l),
		response: reg.Histogram("mqsched_server_response_seconds",
			"End-to-end query latency (waiting plus execution).",
			metrics.DefaultLatencyBuckets, l),
		wait: reg.Histogram("mqsched_server_wait_seconds",
			"Time spent queued before execution began.",
			metrics.DefaultLatencyBuckets, l),
		computeWorkers: reg.Gauge("mqsched_server_compute_workers",
			"Resolved per-query compute worker bound (intra-query parallelism).", l),
	}
	if batch {
		m.batchGroupSize = reg.Histogram("mqsched_batch_group_size",
			"Queries claimed together per batch-executor dispatch.",
			[]float64{1, 2, 4, 8, 16, 32}, l)
		m.batchFanout = reg.Counter("mqsched_batch_fanout_total",
			"Group members covered by projecting the batch seed aggregate.", l)
		m.batchQueueAge = reg.Histogram("mqsched_batch_queue_age_seconds",
			"Queue age (arrival to claim) of queries at batch dispatch.",
			metrics.DefaultLatencyBuckets, l)
	}
	return m
}

func (o Options) withDefaults() Options {
	if o.Threads == 0 {
		o.Threads = 4
	}
	if o.MinReuseOverlap == 0 {
		o.MinReuseOverlap = 0.01
	}
	if o.MinBlockOverlap == 0 {
		o.MinBlockOverlap = 0.1
	}
	return o
}

// Stats are cumulative server counters.
type Stats struct {
	Submitted int64
	Completed int64
	// FullHits counts queries answered entirely from the data store (no raw
	// I/O and no blocking).
	FullHits int64
	// Projections counts cached results projected into outputs.
	Projections int64
	// Blocks counts stalls on EXECUTING producers.
	Blocks int64
	// Canceled counts queries abandoned while still WAITING.
	Canceled int64
	// RawBytes counts input bytes requested from the page space manager.
	RawBytes int64
	// ReusedOutputBytes counts output bytes produced by projection.
	ReusedOutputBytes int64
	// ComputedOutputBytes counts output bytes produced from raw data.
	ComputedOutputBytes int64
	// Materializations counts proactive-materialization queries submitted on
	// data store hints (cost policy only).
	Materializations int64
	// BatchGroups counts multi-query groups claimed by the batch executor;
	// BatchFanouts counts group members whose outputs were (partially)
	// covered by projecting the group's seed aggregate. Zero under every
	// non-batch strategy.
	BatchGroups  int64
	BatchFanouts int64
}

// srvStats are the live counters behind Stats. They are plain atomics
// (mirroring internal/metrics) so the execute/finish hot paths never take a
// server-wide lock: with many query threads on a multi-core machine a single
// counter mutex serializes every projection and completion.
type srvStats struct {
	submitted, completed       atomic.Int64
	fullHits, projections      atomic.Int64
	blocks, canceled           atomic.Int64
	rawBytes                   atomic.Int64
	reusedBytes, computedBytes atomic.Int64
	materializations           atomic.Int64
	batchGroups, batchFanouts  atomic.Int64
}

// snapshot assembles the exported Stats view.
func (s *srvStats) snapshot() Stats {
	return Stats{
		Submitted:           s.submitted.Load(),
		Completed:           s.completed.Load(),
		FullHits:            s.fullHits.Load(),
		Projections:         s.projections.Load(),
		Blocks:              s.blocks.Load(),
		Canceled:            s.canceled.Load(),
		RawBytes:            s.rawBytes.Load(),
		ReusedOutputBytes:   s.reusedBytes.Load(),
		ComputedOutputBytes: s.computedBytes.Load(),
		Materializations:    s.materializations.Load(),
		BatchGroups:         s.batchGroups.Load(),
		BatchFanouts:        s.batchFanouts.Load(),
	}
}

// Server is the query server engine.
type Server struct {
	rtm   rt.Runtime
	app   query.App
	graph *sched.Graph
	ds    *datastore.Manager // nil = caching disabled
	ps    *pagespace.Manager
	opts  Options

	// exec is the dispatch strategy the worker pool runs: query-at-a-time
	// for the paper's strategies, data-affine groups for sched.Batch.
	exec Executor

	mx srvMetrics
	st srvStats

	// mu guards only the worker wait-queue handshake (closed + cond); the
	// stats counters are atomic and the scheduling graph has its own lock.
	mu     sync.Mutex
	cond   rt.Cond
	closed bool

	emu       sync.Mutex
	entryNode map[*datastore.Entry]*sched.Node

	// matInFlight counts outstanding proactive-materialization queries
	// (bounded by Options.MaterializeLimit).
	matInFlight atomic.Int64
}

// task links a scheduling-graph node to its in-progress result; it rides in
// Node.Payload.
type task struct {
	res *query.Result
	// span is the query's root span (inert when span tracing is off).
	span trace.SpanContext
	// materialized marks a proactive-materialization query submitted on a
	// data store hint rather than by a client.
	materialized bool
	// blockTime accumulates stalls on EXECUTING producers; the recompute
	// cost reported to the data store excludes it.
	blockTime time.Duration
}

// Ticket is the client handle for a submitted query.
type Ticket struct {
	node *sched.Node
	res  *query.Result
}

// Wait blocks the calling process until the query completes and returns its
// result.
func (t *Ticket) Wait(ctx rt.Ctx) *query.Result {
	t.node.Done.Wait(ctx)
	return t.res
}

// Done reports whether the query has completed.
func (t *Ticket) Done() bool { return t.node.Done.Opened() }

// New builds a server and starts its query-thread pool. ds may be nil to
// disable intermediate-result caching entirely (the paper's "caching off"
// baseline).
func New(rtm rt.Runtime, app query.App, graph *sched.Graph, ds *datastore.Manager, ps *pagespace.Manager, opts Options) *Server {
	s := &Server{
		rtm:       rtm,
		app:       app,
		graph:     graph,
		ds:        ds,
		ps:        ps,
		opts:      opts.withDefaults(),
		entryNode: map[*datastore.Entry]*sched.Node{},
	}
	_, batching := graph.Policy().(sched.Batch)
	s.mx = newSrvMetrics(s.opts.Metrics, graph.Policy().Name(), batching)
	if batching {
		agg, _ := app.(query.Aggregator)
		maxGroup := s.opts.BatchMaxGroup
		if maxGroup <= 0 {
			maxGroup = DefaultBatchMaxGroup
		}
		s.exec = &batchExecutor{s: s, agg: agg, maxGroup: maxGroup}
	} else {
		s.exec = queryExecutor{s}
	}
	// Hand the intra-query parallelism bound to the application before any
	// query thread starts (the setting must not change once queries execute).
	if pc, ok := app.(query.ParallelComputer); ok {
		pc.SetComputeParallelism(s.opts.ComputeParallelism)
	}
	s.mx.computeWorkers.Set(int64(query.ResolveParallelism(s.opts.ComputeParallelism)))
	s.cond = rtm.NewCond(&s.mu, "server work queue")
	if ds != nil {
		ds.OnEvict = s.onEvict
	}
	for i := 0; i < s.opts.Threads; i++ {
		thread := i
		s.rtm.Spawn(fmt.Sprintf("query-thread-%d", i), func(ctx rt.Ctx) {
			s.worker(ctx, thread)
		})
	}
	return s
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("server: closed")

// Submit enqueues a query and returns its ticket. It may be called from any
// process (or from plain goroutines on the real runtime).
func (s *Server) Submit(m query.Meta) (*Ticket, error) { return s.submit(m, false) }

func (s *Server) submit(m query.Meta, materialized bool) (*Ticket, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.mu.Unlock()
	s.st.submitted.Add(1)
	s.mx.submitted.Inc()

	// Two-phase insertion: the node must be fully constructed (Payload,
	// WaitSpan) before Enqueue publishes it, because a worker may dequeue it
	// the instant it enters the waiting heap.
	n := s.graph.Prepare(m)
	res := &query.Result{Meta: m, Arrival: s.rtm.Now()}
	t := &task{res: res, materialized: materialized}
	if s.opts.Spans != nil {
		// Formatting the attributes costs allocations; untraced servers
		// skip it.
		t.span = s.opts.Spans.StartRoot(n.ID, trace.SubServer, trace.OpQuery,
			trace.Str(trace.AttrStrategy, s.graph.Policy().Name()), trace.Str(trace.AttrQuery, m.String()))
	}
	if materialized {
		t.span.Annotate(trace.Bool(trace.AttrMaterialized, true))
	}
	// The sched wait span is finished by the graph when the query is
	// dequeued (or by Cancel); it measures time spent in the priority queue.
	n.WaitSpan = t.span.Child(trace.SubSched, trace.OpWait)
	n.Payload = t
	s.graph.Enqueue(n)

	s.mu.Lock()
	s.cond.Signal()
	s.mu.Unlock()
	return &Ticket{node: n, res: res}, nil
}

// Cancel abandons a query that has not started executing: its node leaves
// the scheduling graph and its ticket completes immediately with
// Result.Canceled set. It reports false — and changes nothing — once the
// query is executing or done; the result then arrives normally. Use it when
// a client disconnects with queries still queued.
func (s *Server) Cancel(t *Ticket) bool {
	if !s.graph.CancelWaiting(t.node) {
		return false
	}
	now := s.rtm.Now()
	t.res.Canceled = true
	t.res.ExecStart = now
	t.res.Completed = now
	t.node.WaitSpan.Finish(trace.Str(trace.AttrOutcome, "canceled"))
	t.node.Payload.(*task).span.Finish(trace.Str(trace.AttrOutcome, "canceled"))
	s.st.canceled.Add(1)
	s.mx.canceled.Inc()
	t.node.Done.Open()
	return true
}

// Close stops the worker pool once the waiting queue drains. Queries already
// submitted still complete.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats { return s.st.snapshot() }

// worker is one query thread; thread is its pool index, attributed to every
// root span it executes (per-thread utilization in trace analysis). The
// dispatch unit — one query, or one data-affine group — comes from the
// configured Executor.
func (s *Server) worker(ctx rt.Ctx, thread int) {
	for {
		s.mu.Lock()
		var unit []*sched.Node
		for {
			unit = s.exec.Claim()
			if unit != nil {
				break
			}
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.cond.Wait(ctx)
		}
		s.mu.Unlock()
		s.exec.Run(ctx, unit, thread)
	}
}

// execute runs one query to completion. seed, when non-nil, is a freshly
// computed batch-group parent aggregate fanned out to this query before the
// data store is consulted (batch executor only; nil everywhere else).
func (s *Server) execute(ctx rt.Ctx, n *sched.Node, thread int, seed *query.Blob) {
	t := n.Payload.(*task)
	res := t.res
	res.ExecStart = s.rtm.Now()
	t.span.Annotate(trace.I64(trace.AttrThread, int64(thread)))

	out := s.app.NewBlob(ctx, n.Meta)
	grid := s.app.OutputGrid(n.Meta)
	remaining := geom.NewRegion(grid)
	var reusedArea int64
	waited := map[*sched.Node]bool{}

	// Step 0 (batch mode only): fan the group's parent aggregate out into
	// this output first — it was computed moments ago for exactly this data.
	if seed != nil {
		reusedArea += s.projectSeed(ctx, n, t.span, seed, out, remaining)
	}

	for !remaining.Empty() {
		// Step 1: project everything useful from the data store.
		reusedArea += s.projectFromStore(ctx, n.Meta, t.span, out, remaining)
		if remaining.Empty() {
			break
		}
		// Step 2: optionally stall on an overlapping EXECUTING producer.
		if s.blockOnProducer(ctx, n, t, remaining, waited) {
			continue // producer finished; retry the lookup
		}
		// Step 3: compute the rest from raw data (the sub-queries). Raw
		// chunk reads go through the page space with the compute span as
		// parent, so PS and disk spans attribute to this query; with tracing
		// off the manager is passed straight through (no wrapper allocation).
		remaining.Coalesce()
		var pr query.PageReader = s.ps
		compute := t.span.Child(trace.SubServer, trace.OpCompute,
			trace.I64(trace.AttrSubqueries, int64(len(remaining.Rects()))))
		if compute.Active() {
			pr = spanReader{ps: s.ps, sc: compute}
		}
		for _, sub := range remaining.Rects() {
			read := s.app.ComputeRaw(ctx, n.Meta, sub, out, pr)
			res.InputBytesRead += read
		}
		compute.Finish(trace.I64(trace.AttrInputBytes, res.InputBytesRead))
		break
	}

	res.Blob = out
	gridArea := grid.Area()
	if gridArea > 0 {
		res.ReusedFrac = float64(reusedArea) / float64(gridArea)
	}

	// Step 4: store the result for reuse and settle the node state.
	s.finish(n, t, out, res, reusedArea, gridArea)

	// Consume proactive-materialization hints the data store may have
	// emitted (cost policy): submit each parent aggregate as an ordinary
	// query, bounded by MaterializeLimit. Materialization queries themselves
	// do not chain further materializations.
	if t.materialized {
		s.matInFlight.Add(-1)
	} else {
		s.materializeHints()
	}
}

// materializeHints drains the data store's pending parent-aggregate hints
// and submits them, dropping hints beyond the in-flight cap (the hot region
// re-triggers after another probe round).
func (s *Server) materializeHints() {
	if s.ds == nil || s.opts.MaterializeLimit < 0 {
		return
	}
	limit := int64(s.opts.MaterializeLimit)
	if limit == 0 {
		limit = 2
	}
	for _, m := range s.ds.TakeHints() {
		if s.matInFlight.Add(1) > limit {
			s.matInFlight.Add(-1)
			continue
		}
		if _, err := s.submit(m, true); err != nil {
			s.matInFlight.Add(-1)
			continue
		}
		s.st.materializations.Add(1)
		s.mx.materializations.Inc()
	}
}

// spanReader threads a query's span context into page space reads so PS and
// disk spans nest under the query's tree. It forwards prefetching.
type spanReader struct {
	ps *pagespace.Manager
	sc trace.SpanContext
}

func (r spanReader) ReadPage(ctx rt.Ctx, ds string, page int) []byte {
	return r.ps.ReadPageSpan(ctx, r.sc, ds, page)
}

func (r spanReader) ReadPages(ctx rt.Ctx, ds string, pages []int) [][]byte {
	return r.ps.ReadPagesSpan(ctx, r.sc, ds, pages)
}

func (r spanReader) IOBatchPages() int { return r.ps.IOBatchPages() }

func (r spanReader) StartFetch(ds string, page int) { r.ps.StartFetch(ds, page) }

func (r spanReader) StartFetchBatch(ds string, pages []int) { r.ps.StartFetchBatch(ds, pages) }

// projectFromStore projects data-store candidates into out, returning the
// output area newly covered. On the real runtime, when ComputeParallelism
// allows more than one worker, batches of candidates whose covered regions
// are mutually disjoint are projected concurrently (see projectCandidates);
// otherwise each candidate is projected in turn.
func (s *Server) projectFromStore(ctx rt.Ctx, m query.Meta, sp trace.SpanContext, out *query.Blob, remaining *geom.Region) int64 {
	if s.ds == nil {
		return 0
	}
	var gained int64
	cands := s.ds.LookupTraced(sp, m, s.opts.MinReuseOverlap)
	var projections int64
	project := trace.SpanContext{}
	if len(cands) > 0 {
		project = sp.Child(trace.SubServer, trace.OpProject, trace.I64(trace.AttrCandidates, int64(len(cands))))
	}
	workers := query.ResolveParallelism(s.opts.ComputeParallelism)
	if workers > 1 && !ctx.Synthetic() && len(cands) > 1 {
		gained, projections = s.projectCandidates(ctx, m, out, remaining, cands, workers)
	} else {
		for _, c := range cands {
			if !remaining.Empty() {
				coverable := s.app.Coverable(c.Entry.Blob.Meta, m)
				if remaining.IntersectArea(coverable) > 0 {
					covered := s.app.Project(ctx, c.Entry.Blob, m, out)
					if !covered.Empty() {
						newArea := remaining.IntersectArea(covered)
						remaining.Subtract(covered)
						gained += newArea
						projections++
						s.st.projections.Add(1)
						s.mx.projections.Inc()
						// Charge reuse only for candidates actually
						// projected; skipped candidates are unpinned unused.
						c.Entry.MarkProjected()
					}
				}
			}
			c.Entry.Unpin()
		}
	}
	project.Finish(trace.I64(trace.AttrProjections, projections), trace.I64(trace.AttrAreaGained, gained))
	return gained
}

// projectCandidates replays the serial candidate walk of projectFromStore
// with the pixel work fanned out. The select/skip decisions depend only on
// region algebra — Project's covered rect equals Coverable's, so the
// remaining region can be updated eagerly without touching pixels — which
// makes them identical to the serial walk. Selected candidates accumulate
// into a batch as long as their covered rects are mutually disjoint; when
// the next candidate overlaps the batch (a later projection would overwrite
// earlier pixels, and order matters to the bytes), the batch is flushed
// first. Within a batch, projections write disjoint output regions and can
// run concurrently; across batches, serial order is preserved — so the
// final bytes are identical to the serial walk.
func (s *Server) projectCandidates(ctx rt.Ctx, m query.Meta, out *query.Blob, remaining *geom.Region, cands []datastore.Candidate, workers int) (gained, projections int64) {
	type job struct {
		entry   *datastore.Entry
		covered geom.Rect
	}
	var batch []job
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if len(batch) == 1 {
			s.app.Project(ctx, batch[0].entry.Blob, m, out)
			batch[0].entry.Unpin()
			batch = batch[:0]
			return
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		nw := workers
		if nw > len(batch) {
			nw = len(batch)
		}
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(batch) {
						return
					}
					s.app.Project(ctx, batch[i].entry.Blob, m, out)
					batch[i].entry.Unpin()
				}
			}()
		}
		wg.Wait()
		batch = batch[:0]
	}
	for _, c := range cands {
		if remaining.Empty() {
			c.Entry.Unpin()
			continue
		}
		coverable := s.app.Coverable(c.Entry.Blob.Meta, m)
		if remaining.IntersectArea(coverable) == 0 {
			c.Entry.Unpin()
			continue
		}
		for _, j := range batch {
			if !j.covered.Intersect(coverable).Empty() {
				flush()
				break
			}
		}
		gained += remaining.IntersectArea(coverable)
		remaining.Subtract(coverable)
		projections++
		s.st.projections.Add(1)
		s.mx.projections.Inc()
		// Same accounting point as the serial walk: the selection decision
		// is the projection (Project covers exactly Coverable's rect).
		c.Entry.MarkProjected()
		batch = append(batch, job{entry: c.Entry, covered: coverable})
	}
	flush()
	return gained, projections
}

// blockOnProducer stalls on the best eligible EXECUTING producer. It returns
// true if it waited (the caller should retry the data store lookup).
func (s *Server) blockOnProducer(ctx rt.Ctx, n *sched.Node, t *task, remaining *geom.Region, waited map[*sched.Node]bool) bool {
	if !s.opts.BlockOnExecuting || s.ds == nil {
		return false
	}
	// BlockableProducers applies the deadlock-avoidance rule (only block on
	// queries whose execution started earlier) under the graph's lock, where
	// ExecSeq is written.
	for _, p := range s.graph.BlockableProducers(n) {
		if waited[p] {
			continue
		}
		if s.app.Overlap(p.Meta, n.Meta) < s.opts.MinBlockOverlap {
			continue
		}
		if remaining.IntersectArea(s.app.Coverable(p.Meta, n.Meta)) == 0 {
			continue
		}
		waited[p] = true
		t.res.WaitedOnExecuting++
		s.st.blocks.Add(1)
		s.mx.blocks.Inc()
		blockStart := s.rtm.Now()
		block := t.span.Child(trace.SubServer, trace.OpBlock, trace.I64(trace.AttrProducer, p.ID))
		p.Done.Wait(ctx)
		block.Finish()
		t.blockTime += s.rtm.Now() - blockStart
		return true
	}
	return false
}

// finish publishes the result and settles the scheduling-graph node.
func (s *Server) finish(n *sched.Node, t *task, out *query.Blob, res *query.Result, reusedArea, gridArea int64) {
	cached := false
	admitted := false
	if s.ds != nil {
		// The value model's recompute-cost estimate: this query's execution
		// time so far on the runtime's clock, excluding producer stalls
		// (waiting is not work the cache would save).
		cost := (s.rtm.Now() - res.ExecStart - t.blockTime).Seconds()
		store := t.span.Child(trace.SubDatastore, trace.OpStore, trace.I64(trace.AttrBytes, out.Size))
		if entry := s.ds.InsertWith(out, datastore.InsertInfo{
			CostSeconds:  cost,
			Materialized: t.materialized,
		}); entry != nil {
			admitted = true
			s.emu.Lock()
			s.entryNode[entry] = n
			s.emu.Unlock()
			s.graph.MarkCached(n)
			if entry.Evicted() {
				// Lost a race with a concurrent insert's eviction sweep.
				s.emu.Lock()
				delete(s.entryNode, entry)
				s.emu.Unlock()
				s.graph.Remove(n)
			} else {
				cached = true
			}
		}
		store.Finish(trace.Bool(trace.AttrCached, cached), trace.Bool(trace.AttrAdmitted, admitted))
	}
	if !cached {
		s.graph.Remove(n)
	}

	res.Completed = s.rtm.Now()
	t.span.Finish(
		trace.F64(trace.AttrReusedFrac, res.ReusedFrac),
		trace.I64(trace.AttrInputBytes, res.InputBytesRead),
		trace.I64(trace.AttrBlocks, int64(res.WaitedOnExecuting)),
		trace.Bool(trace.AttrCached, cached))
	s.graph.Observe(res.ResponseTime()) // feedback for self-tuning policies

	s.st.completed.Add(1)
	s.mx.completed.Inc()
	if reusedArea == gridArea && res.WaitedOnExecuting == 0 && res.InputBytesRead == 0 {
		s.st.fullHits.Add(1)
		s.mx.fullHits.Inc()
	}
	s.st.rawBytes.Add(res.InputBytesRead)
	s.mx.rawBytes.Add(res.InputBytesRead)
	// Split out.Size proportionally by reused area. Integer bytes-per-pixel
	// would silently drop the fractional remainder (reused + computed would
	// undercount out.Size); splitting the quotient and remainder separately
	// keeps the arithmetic exact and overflow-safe, and computed is derived
	// by subtraction so the two always sum to out.Size.
	var reusedBytes int64
	if gridArea > 0 {
		reusedBytes = out.Size/gridArea*reusedArea + out.Size%gridArea*reusedArea/gridArea
	}
	computedBytes := out.Size - reusedBytes
	s.st.reusedBytes.Add(reusedBytes)
	s.st.computedBytes.Add(computedBytes)
	s.mx.reusedBytes.Add(reusedBytes)
	s.mx.computedBytes.Add(computedBytes)
	s.mx.response.Observe(res.ResponseTime().Seconds())
	s.mx.wait.Observe(res.WaitTime().Seconds())

	n.Done.Open()
}

// onEvict is the data store hook: a reclaimed result moves its node to
// SWAPPED OUT and removes it from the scheduling graph.
func (s *Server) onEvict(e *datastore.Entry) {
	s.emu.Lock()
	n := s.entryNode[e]
	delete(s.entryNode, e)
	s.emu.Unlock()
	if n != nil {
		s.graph.Remove(n)
	}
}

// Drain submits nothing and waits (polling the runtime clock) — exposed for
// tests on the real runtime where there is no global "run to completion".
func (s *Server) Drain(tickets []*Ticket, ctx rt.Ctx) {
	for _, t := range tickets {
		t.Wait(ctx)
	}
}
