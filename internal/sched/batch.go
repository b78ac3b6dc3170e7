package sched

import (
	"container/heap"
	"fmt"
	"sort"

	"mqsched/internal/query"
	"mqsched/internal/trace"
)

// DefaultBatchStarvation is the aging weight ByName gives the batch policy.
// At this blend a waiting query's rank decays by one "equivalent pending
// query" of hotness per 1/DefaultBatchStarvation later arrivals, so even a
// query overlapping nothing is eventually dequeued ahead of a perpetually
// hot stream.
const DefaultBatchStarvation = 0.05

// Batch is the data-driven ranking strategy behind the batch executor
// ("LifeRaft mode", after LifeRaft's data-driven batch processing): instead
// of ranking queries by their own cache affinity, it ranks them by how much
// *pending* demand touches the same data, so the server processes the
// hottest data unit once and fans the result out to everything waiting on
// it.
//
// The hotness of a node is the reuse-edge mass shared with other WAITING
// nodes, normalized by each edge's producer output size — w(i,k) =
// overlap(M_i,M_k)·qoutsize(M_i), so w/qoutsize is a pure overlap fraction
// in [0,1] and hotness counts "equivalent whole queries served" regardless
// of query size or application:
//
//	hot_i = Σ_{waiting k} w(i,k)/qoutsize(M_i) + Σ_{waiting k} w(k,i)/qoutsize(M_k)
//
// Starvation is the utility blend back toward arrival order: rank = hot −
// Starvation·Seq. With no overlapping load every hotness is zero and the
// ordering degenerates to exactly FIFO; under a perpetually hot stream a
// disjoint query arrived at sequence s0 outranks every arrival with
// Seq > s0 + hot_max/Starvation, which bounds its wait (the starvation
// deadline — see TestBatchStarvationBound).
type Batch struct {
	// App supplies qoutsize for edge normalization.
	App query.App
	// Starvation is the aging weight blending hotness back toward arrival
	// order. Zero disables aging (pure data-hotness order, starvation-prone).
	Starvation float64
}

// Name implements Policy.
func (b Batch) Name() string {
	return fmt.Sprintf("batch(s=%.2g)", b.Starvation)
}

// Rank implements Policy.
func (b Batch) Rank(n *Node) float64 {
	var hot float64
	if outSize := float64(b.App.QOutSize(n.Meta)); outSize > 0 {
		for _, e := range n.out {
			if e.k.state == Waiting {
				hot += e.w / outSize
			}
		}
	}
	for _, e := range n.in {
		if e.k.state != Waiting {
			continue
		}
		if ks := float64(b.App.QOutSize(e.k.Meta)); ks > 0 {
			hot += e.w / ks
		}
	}
	return hot - b.Starvation*float64(n.Seq)
}

// DequeueBatch removes the highest-ranked WAITING node (the group seed) plus
// up to max−1 WAITING neighbours that share a reuse edge with it, marking
// all of them EXECUTING in one critical section, or nil if no query is
// waiting. Neighbours join in decreasing order of symmetric edge weight
// (w(seed,k)+w(k,seed), ties by arrival), so the group is deterministic and
// data-affine: every member provably reads overlapping data.
//
// ExecSeqs are assigned in claim order, seed first. Deadlock safety is
// preserved: wait-for edges still only point from larger to smaller ExecSeq
// (BlockableProducers), and a claimed-but-not-yet-running member's implicit
// predecessor — the earlier group member on the same worker — always has a
// smaller ExecSeq, so the wait-for graph stays acyclic.
func (g *Graph) DequeueBatch(max int) []*Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.waiting.Len() == 0 {
		return nil
	}
	seed := heap.Pop(&g.waiting).(*Node)
	group := []*Node{seed}
	if max > 1 {
		type cand struct {
			n *Node
			w float64
		}
		back := make(map[*Node]float64, len(seed.in))
		for _, e := range seed.in {
			back[e.k] = e.w
		}
		cands := make([]cand, 0, len(seed.out)+len(seed.in))
		g.epoch++
		for _, e := range seed.out {
			e.k.mark = g.epoch
			if e.k.state == Waiting {
				cands = append(cands, cand{e.k, e.w + back[e.k]})
			}
		}
		for _, e := range seed.in {
			if e.k.state == Waiting && e.k.mark != g.epoch {
				cands = append(cands, cand{e.k, e.w})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].w != cands[j].w {
				return cands[i].w > cands[j].w
			}
			return cands[i].n.Seq < cands[j].n.Seq
		})
		for _, c := range cands {
			if len(group) >= max {
				break
			}
			heap.Remove(&g.waiting, c.n.heapIdx)
			group = append(group, c.n)
		}
	}
	depth := int64(g.waiting.Len())
	for _, n := range group {
		n.state = Executing
		g.nextExc++
		n.ExecSeq = g.nextExc
		n.WaitSpan.Finish(trace.F64(trace.AttrRank, n.rank),
			trace.I64(trace.AttrQueueDepth, depth))
		g.st.Dequeued++
		g.mx.toExecuting.Inc()
	}
	g.updateGaugesLocked()
	for _, n := range group {
		g.refreshNeighboursLocked(n)
	}
	return group
}
