// Package sched implements the paper's dynamic query scheduling model (§4):
// a priority queue implemented as a directed graph G(V, E). Each vertex is a
// query that is waiting, executing, or recently computed with cached
// results; a directed edge e(i,j) means q_j's result can be computed from
// q_i's result through the application's project transformation, with weight
// w(i,j) = overlap(M_i, M_j) · qoutsize(M_i) — a measure of the number of
// bytes that can be reused. Each node carries a 2-tuple <rank, state>; a
// dequeue returns the WAITING node of highest rank under the configured
// ranking strategy.
//
// Rank maintenance is incremental: inserting a node, changing a node's
// state, or removing a node only re-ranks the node itself and its graph
// neighbours, mirroring the paper's incremental topological-sort
// implementation.
package sched

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"sync"
	"time"

	"mqsched/internal/metrics"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/spatial"
	"mqsched/internal/trace"
)

// State is the lifecycle state of a query node.
type State uint8

const (
	// Waiting queries are queued for execution.
	Waiting State = iota
	// Executing queries occupy a query thread.
	Executing
	// Cached queries have finished and their results live in the data store.
	Cached
	// SwappedOut queries' results were reclaimed; the node is removed from
	// the graph.
	SwappedOut
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Waiting:
		return "WAITING"
	case Executing:
		return "EXECUTING"
	case Cached:
		return "CACHED"
	case SwappedOut:
		return "SWAPPED_OUT"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Node is a vertex of the query scheduling graph.
type Node struct {
	ID   int64
	Meta query.Meta

	// Seq is the arrival order (FIFO rank and tie-breaking).
	Seq int64
	// ExecSeq is the order in which execution started (0 until scheduled);
	// the server's deadlock-avoidance rule only lets a query block on
	// producers with a smaller ExecSeq.
	ExecSeq int64

	// Done opens when the query finishes executing (its result is available
	// in the data store, or the query completed uncached). Dependent queries
	// and the submitting client wait on it.
	Done rt.Gate

	// Payload is for the embedding server's use (e.g. the data store entry
	// backing a CACHED node). It must be assigned between Prepare and
	// Enqueue: once the node is published, a worker may dequeue and read it
	// at any moment.
	Payload any

	// WaitSpan, when active, measures the node's time in the waiting queue;
	// the graph finishes it at Dequeue with the winning rank and the queue
	// depth it was selected from. The submitter sets it (as a child of the
	// query's root span) between Prepare and Enqueue; the zero value is
	// inert.
	WaitSpan trace.SpanContext

	state State
	rank  float64
	// out holds w(this, k): bytes of this node's result reusable for k;
	// in holds w(k, this).
	out, in []edge
	// mark is the graph epoch of the last pass that visited the node; it
	// lets one pass skip a node it has already seen without a set.
	mark uint64

	heapIdx int // index in the waiting heap, -1 if not enqueued
}

// State returns the node's current state. Callers outside the graph's lock
// should treat it as advisory.
func (n *Node) State() State { return n.state }

// Rank returns the node's current rank.
func (n *Node) Rank() float64 { return n.rank }

// Graph is the scheduling graph plus the waiting-queue priority heap.
// All methods are safe for concurrent use.
type Graph struct {
	mu      sync.Mutex
	app     query.App
	policy  Policy
	newGate func(string) rt.Gate

	nodes   map[int64]*Node
	trees   map[string]*spatial.Tree[*Node] // overlap-candidate index
	waiting waitHeap
	nextID  int64
	nextExc int64
	epoch   uint64 // see Node.mark

	st GraphStats
	mx graphMetrics
}

// graphMetrics are the registry handles; the zero value disables
// instrumentation.
type graphMetrics struct {
	queueDepth, nodes                              *metrics.Gauge
	reRanks, edgePairs                             *metrics.Counter
	toWaiting, toExecuting, toCached, toSwappedOut *metrics.Counter
}

// UseMetrics registers the graph's gauges and counters (mqsched_sched_*) on
// reg. Call it once, before the graph is shared with query threads; a nil
// registry leaves instrumentation disabled at the cost of a nil check.
func (g *Graph) UseMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	transitions := func(state string) *metrics.Counter {
		return reg.Counter("mqsched_sched_transitions_total",
			"Query node state transitions by destination state.",
			metrics.L("state", state))
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.mx = graphMetrics{
		queueDepth: reg.Gauge("mqsched_sched_queue_depth",
			"WAITING queries in the scheduling graph's priority queue."),
		nodes: reg.Gauge("mqsched_sched_nodes",
			"Nodes in the scheduling graph (all states except SWAPPED OUT)."),
		reRanks: reg.Counter("mqsched_sched_reranks_total",
			"Rank recomputations (the cost of incremental rank maintenance)."),
		edgePairs: reg.Counter("mqsched_sched_edges_total",
			"Reuse edges ever created between query nodes."),
		toWaiting:    transitions("waiting"),
		toExecuting:  transitions("executing"),
		toCached:     transitions("cached"),
		toSwappedOut: transitions("swapped_out"),
	}
}

// GraphStats are cumulative counters.
type GraphStats struct {
	Inserted  int64
	Dequeued  int64
	Removed   int64
	EdgePairs int64 // number of neighbour relations ever created
	ReRanks   int64 // rank recomputations (measure of incremental cost)
}

// New returns an empty graph using the given ranking strategy. The runtime
// provides completion gates for nodes.
func New(r rt.Runtime, app query.App, policy Policy) *Graph {
	return &Graph{
		app:     app,
		policy:  policy,
		newGate: func(reason string) rt.Gate { return r.NewGate(reason) },
		nodes:   map[int64]*Node{},
		trees:   map[string]*spatial.Tree[*Node]{},
	}
}

// Policy returns the active ranking strategy.
func (g *Graph) Policy() Policy { return g.policy }

// Insert adds a new query in the WAITING state: it creates the node, adds
// edges to and from every node with non-zero overlap, computes the new
// node's rank and refreshes the ranks of its neighbours (paper §4, steps
// (1)-(3) for a new query). It is Prepare followed immediately by Enqueue;
// callers that must attach per-node data (Payload, WaitSpan) before the node
// can be dequeued use the two-phase form.
func (g *Graph) Insert(m query.Meta) *Node {
	n := g.Prepare(m)
	g.Enqueue(n)
	return n
}

// Prepare allocates a node for a new query without publishing it: the node
// has its ID, arrival sequence, and completion gate, but is invisible to
// Dequeue (and to edge discovery by other inserts) until Enqueue. The caller
// may set Payload and WaitSpan on the returned node; once Enqueue publishes
// it, any worker can dequeue it concurrently, so those fields must not be
// written afterwards.
func (g *Graph) Prepare(m query.Meta) *Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nextID++
	return &Node{
		ID:      g.nextID,
		Meta:    m,
		Seq:     g.nextID,
		Done:    g.newGate(fmt.Sprintf("query %d done", g.nextID)),
		state:   Waiting,
		heapIdx: -1,
	}
}

// Enqueue publishes a prepared node into the WAITING queue: it adds edges to
// and from every node with non-zero overlap, pushes the node on the priority
// heap, computes its rank and refreshes the ranks of its neighbours. After
// Enqueue returns the node is owned by the graph and may already be
// EXECUTING on another thread.
func (g *Graph) Enqueue(n *Node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.nodes[n.ID]; dup || n.heapIdx != -1 {
		panic(fmt.Sprintf("sched: Enqueue of already-published node %d", n.ID))
	}
	g.nodes[n.ID] = n
	g.st.Inserted++

	// Neighbour discovery via the spatial index: overlap requires region
	// intersection on the same dataset.
	tree := g.treeFor(n.Meta.Dataset())
	g.epoch++
	for _, c := range tree.Search(n.Meta.Region(), nil) {
		if c.mark == g.epoch {
			continue // the index can report a node twice
		}
		c.mark = g.epoch
		if w := g.app.Overlap(c.Meta, n.Meta) * float64(g.app.QOutSize(c.Meta)); w > 0 {
			link(c, n, w)
			g.st.EdgePairs++
			g.mx.edgePairs.Inc()
		}
		if w := g.app.Overlap(n.Meta, c.Meta) * float64(g.app.QOutSize(n.Meta)); w > 0 {
			link(n, c, w)
			g.st.EdgePairs++
			g.mx.edgePairs.Inc()
		}
	}
	tree.Insert(n.Meta.Region(), n)

	heap.Push(&g.waiting, n)
	g.mx.toWaiting.Inc()
	g.updateGaugesLocked()
	g.refreshLocked(n)
	g.refreshNeighboursLocked(n)
}

// Dequeue removes and returns the WAITING node with the highest rank,
// marking it EXECUTING, or nil if no query is waiting. Neighbour ranks are
// refreshed to reflect the state change.
func (g *Graph) Dequeue() *Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.waiting.Len() == 0 {
		return nil
	}
	n := heap.Pop(&g.waiting).(*Node)
	n.state = Executing
	g.nextExc++
	n.ExecSeq = g.nextExc
	n.WaitSpan.Finish(trace.F64(trace.AttrRank, n.rank),
		trace.I64(trace.AttrQueueDepth, int64(g.waiting.Len())))
	g.st.Dequeued++
	g.mx.toExecuting.Inc()
	g.updateGaugesLocked()
	g.refreshNeighboursLocked(n)
	return n
}

// MarkCached transitions an EXECUTING node to CACHED: its results are now
// available in the data store for reuse. A node that has already been
// swapped out (its entry evicted before the transition landed) is left
// alone.
func (g *Graph) MarkCached(n *Node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n.state == SwappedOut {
		return
	}
	if n.state != Executing {
		panic(fmt.Sprintf("sched: MarkCached of %v node %d", n.state, n.ID))
	}
	n.state = Cached
	g.mx.toCached.Inc()
	g.refreshNeighboursLocked(n)
}

// Remove takes a node out of the graph: a CACHED node whose results were
// reclaimed (it becomes SWAPPED OUT), or an EXECUTING node that completed
// without caching its result. All its edges are removed and the ranks of its
// former neighbours recomputed, so "the up-to-date state of the system is
// reflected to the query server" (§4).
func (g *Graph) Remove(n *Node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n.state == SwappedOut {
		return
	}
	if n.state == Waiting {
		panic(fmt.Sprintf("sched: Remove of WAITING node %d", n.ID))
	}
	former := g.detachLocked(n)
	n.state = SwappedOut
	g.treeFor(n.Meta.Dataset()).Delete(n.Meta.Region(), n)
	delete(g.nodes, n.ID)
	g.st.Removed++
	g.mx.toSwappedOut.Inc()
	g.updateGaugesLocked()
	for _, k := range former {
		g.refreshLocked(k)
	}
}

// CancelWaiting removes a node that is still WAITING (the client abandoned
// the query before a thread picked it up): it leaves the priority queue and
// the graph, and its former neighbours are re-ranked. It reports false —
// and does nothing — if the node is no longer waiting; the query will
// complete normally.
func (g *Graph) CancelWaiting(n *Node) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n.state != Waiting {
		return false
	}
	heap.Remove(&g.waiting, n.heapIdx)
	former := g.detachLocked(n)
	n.state = SwappedOut
	g.treeFor(n.Meta.Dataset()).Delete(n.Meta.Region(), n)
	delete(g.nodes, n.ID)
	g.st.Removed++
	g.mx.toSwappedOut.Inc()
	g.updateGaugesLocked()
	for _, k := range former {
		g.refreshLocked(k)
	}
	return true
}

// ExecutingProducers returns the nodes currently EXECUTING whose results
// overlap n (edges k→n), ordered by decreasing weight. The server consults
// it to decide whether to block on a result "that is still being computed".
func (g *Graph) ExecutingProducers(n *Node) []*Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.producersLocked(n, nil)
}

// producersLocked collects the EXECUTING producers of n that pass the
// optional eligibility filter, ordered by decreasing weight.
func (g *Graph) producersLocked(n *Node, eligible func(*Node) bool) []*Node {
	var out []edge
	for _, e := range n.in {
		if e.k.state == Executing && (eligible == nil || eligible(e.k)) {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b edge) int {
		if c := cmp.Compare(b.w, a.w); c != 0 {
			return c
		}
		return cmp.Compare(a.k.ID, b.k.ID)
	})
	nodes := make([]*Node, len(out))
	for i, e := range out {
		nodes[i] = e.k
	}
	return nodes
}

// BlockableProducers is ExecutingProducers restricted to producers a running
// consumer may safely stall on: only those whose execution started earlier
// (smaller ExecSeq), which keeps the wait-for graph acyclic (the server's
// deadlock-avoidance rule). ExecSeq is written under the graph's lock at
// Dequeue, so the eligibility test must run here rather than in the caller.
// n must itself be EXECUTING.
func (g *Graph) BlockableProducers(n *Node) []*Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n.state != Executing {
		panic(fmt.Sprintf("sched: BlockableProducers of %v node %d", n.state, n.ID))
	}
	return g.producersLocked(n, func(k *Node) bool { return k.ExecSeq < n.ExecSeq })
}

// EdgeWeight returns w(src, dst) and whether the edge exists.
func (g *Graph) EdgeWeight(src, dst *Node) (float64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, e := range src.out {
		if e.k == dst {
			return e.w, true
		}
	}
	return 0, false
}

// Observe forwards a completed query's response time to the ranking policy
// (self-tuning strategies learn from it; see Feedback). If the policy
// reports that its ranking function changed, every WAITING rank is
// recomputed.
func (g *Graph) Observe(response time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f, ok := g.policy.(Feedback)
	if !ok || !f.Observe(response) {
		return
	}
	for _, n := range g.waiting {
		n.rank = g.policy.Rank(n)
		g.st.ReRanks++
		g.mx.reRanks.Inc()
	}
	heap.Init(&g.waiting)
}

// WaitingCount returns the number of WAITING queries.
func (g *Graph) WaitingCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiting.Len()
}

// Len returns the number of nodes in the graph (all states except
// SWAPPED OUT).
func (g *Graph) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.nodes)
}

// Stats returns a snapshot of the counters.
func (g *Graph) Stats() GraphStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.st
}

// refreshLocked recomputes the rank of n if it is WAITING and repositions it
// in the heap.
func (g *Graph) refreshLocked(n *Node) {
	if n.state != Waiting || n.heapIdx < 0 {
		return
	}
	n.rank = g.policy.Rank(n)
	heap.Fix(&g.waiting, n.heapIdx)
	g.st.ReRanks++
	g.mx.reRanks.Inc()
}

// updateGaugesLocked refreshes the queue-depth and node-count gauges after a
// structural change.
func (g *Graph) updateGaugesLocked() {
	g.mx.queueDepth.Set(int64(g.waiting.Len()))
	g.mx.nodes.Set(int64(len(g.nodes)))
}

// refreshNeighboursLocked recomputes the ranks of every neighbour of n,
// once each.
func (g *Graph) refreshNeighboursLocked(n *Node) {
	g.epoch++
	for _, e := range n.out {
		e.k.mark = g.epoch
		g.refreshLocked(e.k)
	}
	for _, e := range n.in {
		if e.k.mark != g.epoch {
			g.refreshLocked(e.k)
		}
	}
}

// edge is a reuse edge as stored at one end: the node at the other end, the
// weight, and the index of the edge's mirror in that node's opposite list
// (out ↔ in). Ranking strategies sum over the lists, whose order depends
// only on the sequence of graph operations, so a rank's floating-point sum
// rounds the same way on every run (a map's iteration order would not); the
// mirror index makes removal O(1).
type edge struct {
	k    *Node
	w    float64
	twin int
}

// link adds the edge src→dst with weight w.
func link(src, dst *Node, w float64) {
	src.out = append(src.out, edge{k: dst, w: w, twin: len(dst.in)})
	dst.in = append(dst.in, edge{k: src, w: w, twin: len(src.out) - 1})
}

// detachLocked removes every edge of n and returns its former neighbours.
// Each mirror leaves its list by moving the list's last edge into its slot
// and repointing that edge's own mirror.
func (g *Graph) detachLocked(n *Node) []*Node {
	former := make([]*Node, 0, len(n.in)+len(n.out))
	for _, e := range n.out {
		l, last := e.k.in, len(e.k.in)-1
		if m := l[last]; e.twin != last {
			l[e.twin] = m
			m.k.out[m.twin].twin = e.twin
		}
		l[last] = edge{}
		e.k.in = l[:last]
		former = append(former, e.k)
	}
	for _, e := range n.in {
		l, last := e.k.out, len(e.k.out)-1
		if m := l[last]; e.twin != last {
			l[e.twin] = m
			m.k.in[m.twin].twin = e.twin
		}
		l[last] = edge{}
		e.k.out = l[:last]
		former = append(former, e.k)
	}
	n.out, n.in = nil, nil
	return former
}

func (g *Graph) treeFor(ds string) *spatial.Tree[*Node] {
	t, ok := g.trees[ds]
	if !ok {
		t = spatial.NewTree[*Node]()
		g.trees[ds] = t
	}
	return t
}

// waitHeap orders WAITING nodes by descending rank, breaking ties FIFO by
// arrival sequence.
type waitHeap []*Node

func (h waitHeap) Len() int { return len(h) }
func (h waitHeap) Less(i, j int) bool {
	if h[i].rank != h[j].rank {
		return h[i].rank > h[j].rank
	}
	return h[i].Seq < h[j].Seq
}
func (h waitHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *waitHeap) Push(x any) {
	n := x.(*Node)
	n.heapIdx = len(*h)
	*h = append(*h, n)
}
func (h *waitHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	n.heapIdx = -1
	*h = old[:len(old)-1]
	return n
}
