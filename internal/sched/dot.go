package sched

import (
	"fmt"
	"sort"
	"strings"
)

// DOT renders the current scheduling graph in Graphviz format: one node per
// query labelled with its id, state and rank, and one edge per reuse
// relation labelled with its weight in megabytes. Useful for inspecting what
// a ranking strategy sees (pipe into `dot -Tsvg`).
func (g *Graph) DOT() string {
	g.mu.Lock()
	defer g.mu.Unlock()

	ids := make([]int64, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var b strings.Builder
	b.WriteString("digraph sched {\n")
	b.WriteString("  rankdir=LR;\n  node [shape=box, fontsize=10];\n")
	for _, id := range ids {
		n := g.nodes[id]
		fmt.Fprintf(&b, "  q%d [label=\"q%d\\n%s\\nrank=%.3g\"%s];\n",
			n.ID, n.ID, n.state, n.rank, dotStyle(n.state))
	}
	for _, id := range ids {
		n := g.nodes[id]
		// Deterministic edge order.
		tgts := append([]edge(nil), n.out...)
		sort.Slice(tgts, func(i, j int) bool { return tgts[i].k.ID < tgts[j].k.ID })
		for _, e := range tgts {
			fmt.Fprintf(&b, "  q%d -> q%d [label=\"%.2fMB\"];\n", n.ID, e.k.ID, e.w/(1<<20))
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func dotStyle(s State) string {
	switch s {
	case Waiting:
		return ""
	case Executing:
		return ", style=filled, fillcolor=lightyellow"
	case Cached:
		return ", style=filled, fillcolor=lightblue"
	}
	return ", style=dashed"
}
