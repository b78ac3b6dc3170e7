package sched

import (
	"fmt"

	"mqsched/internal/query"
)

// Policy is a ranking strategy: given a WAITING node (with its edges and
// neighbour states visible), return its rank. Higher ranks execute first.
// Rank is called with the graph's lock held.
type Policy interface {
	Name() string
	Rank(n *Node) float64
}

// FIFO serves queries in arrival order: rank = −arrival sequence. "FIFO
// targets fairness" (§4).
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "FIFO" }

// Rank implements Policy.
func (FIFO) Rank(n *Node) float64 { return -float64(n.Seq) }

// MUF — Most Useful First — ranks a node by how much the other WAITING
// queries depend on it: r_i = Σ w(i,k) over edges i→k with s_k = WAITING.
// "It quantifies how many queries are going to benefit if we run query q_i
// next."
type MUF struct{}

// Name implements Policy.
func (MUF) Name() string { return "MUF" }

// Rank implements Policy.
func (MUF) Rank(n *Node) float64 {
	var r float64
	for _, e := range n.out {
		if e.k.state == Waiting {
			r += e.w
		}
	}
	return r
}

// FF — Farthest First — ranks a node by how likely it is to block on a
// dependency: r_i = −Σ w(k,i) over edges k→i with s_k ∈ {WAITING,
// EXECUTING}. Nodes with more pending dependencies get smaller ranks, so
// queries far from their producers run first.
type FF struct{}

// Name implements Policy.
func (FF) Name() string { return "FF" }

// Rank implements Policy.
func (FF) Rank(n *Node) float64 {
	var r float64
	for _, e := range n.in {
		if e.k.state == Waiting || e.k.state == Executing {
			r -= e.w
		}
	}
	return r
}

// CF — Closest First — favours queries whose producers are already CACHED
// (or, discounted by Alpha, still EXECUTING):
// r_i = Σ_{cached k} w(k,i) + α · Σ_{executing k} w(k,i), 0 < α < 1.
// "Scheduling queries that are close has the potential to improve locality,
// making caching more beneficial."
type CF struct {
	// Alpha weights dependencies on results still being computed. The
	// paper's experiments fix α = 0.2.
	Alpha float64
}

// Name implements Policy.
func (c CF) Name() string { return fmt.Sprintf("CF(α=%.2g)", c.Alpha) }

// Rank implements Policy.
func (c CF) Rank(n *Node) float64 {
	var r float64
	for _, e := range n.in {
		switch e.k.state {
		case Cached:
			r += e.w
		case Executing:
			r += c.Alpha * e.w
		}
	}
	return r
}

// CNBF — Closest and Non-Blocking First — like CF but *penalizes*
// dependencies on EXECUTING producers, to avoid interlock: r_i =
// Σ_{cached k} w(k,i) − Σ_{executing k} w(k,i).
type CNBF struct{}

// Name implements Policy.
func (CNBF) Name() string { return "CNBF" }

// Rank implements Policy.
func (CNBF) Rank(n *Node) float64 {
	var r float64
	for _, e := range n.in {
		switch e.k.state {
		case Cached:
			r += e.w
		case Executing:
			r -= e.w
		}
	}
	return r
}

// SJF — Shortest Job First — ranks by estimated execution time, using
// qinputsize (the bytes of the chunks intersecting the query window) as the
// estimate: r_i = −qinputsize(M_i).
type SJF struct {
	App query.App
}

// Name implements Policy.
func (SJF) Name() string { return "SJF" }

// Rank implements Policy.
func (s SJF) Rank(n *Node) float64 { return -float64(s.App.QInSize(n.Meta)) }

// policyNames is the canonical strategy set: the paper's six in its order,
// then the data-driven batch extension. TestNamesResolve pins every entry to
// a ByName case so the advertised set cannot drift from the constructible
// one.
var policyNames = []string{"fifo", "muf", "ff", "cf", "cnbf", "sjf", "batch"}

// Names returns the canonical lower-case names of every ranking strategy
// constructible through ByName, in a fixed order. The set is advertised by
// the mqsched_build_info metric and trace-collection headers.
func Names() []string {
	return append([]string(nil), policyNames...)
}

// ByName returns the policy with one of the names in Names(); CF uses
// α = 0.2 as in the paper and batch uses Starvation =
// DefaultBatchStarvation. It reports false for unknown names.
func ByName(name string, app query.App) (Policy, bool) {
	switch name {
	case "fifo", "FIFO":
		return FIFO{}, true
	case "muf", "MUF":
		return MUF{}, true
	case "ff", "FF":
		return FF{}, true
	case "cf", "CF":
		return CF{Alpha: 0.2}, true
	case "cnbf", "CNBF":
		return CNBF{}, true
	case "sjf", "SJF":
		return SJF{App: app}, true
	case "batch", "BATCH":
		return Batch{App: app, Starvation: DefaultBatchStarvation}, true
	}
	return nil, false
}

// AllPolicies returns the six strategies evaluated in the paper, in its
// presentation order, with α = 0.2 for CF.
func AllPolicies(app query.App) []Policy {
	return []Policy{FIFO{}, MUF{}, FF{}, CF{Alpha: 0.2}, CNBF{}, SJF{App: app}}
}
