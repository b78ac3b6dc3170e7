package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// lifecycle is one query's path through the scheduling graph, read back
// from its spans: submitted and completed (the server/query root), left the
// waiting queue (the end of sched/wait), and stalled on producers
// (server/block).
type lifecycle struct {
	id                      int64
	submit, start, complete time.Duration
	blocked                 []Span
	hasRoot, hasStart       bool
}

// lifecycles groups spans per query, ordered by submission. Queries whose
// root span was evicted from the ring order by their earliest surviving span.
func lifecycles(spans []Span) []*lifecycle {
	byID := map[int64]*lifecycle{}
	var order []*lifecycle
	for _, s := range spans {
		l := byID[s.QueryID]
		if l == nil {
			l = &lifecycle{id: s.QueryID, submit: s.Start}
			byID[s.QueryID] = l
			order = append(order, l)
		}
		switch {
		case s.Parent == 0 && s.Subsystem == SubServer && s.Op == OpQuery:
			l.submit, l.complete, l.hasRoot = s.Start, s.End, true
		case s.Subsystem == SubSched && s.Op == OpWait:
			if outcome, _ := s.AttrStr(AttrOutcome); outcome != "canceled" {
				l.start, l.hasStart = s.End, true
			}
		case s.Subsystem == SubServer && s.Op == OpBlock:
			l.blocked = append(l.blocked, s)
		}
		if !l.hasRoot && s.Start < l.submit {
			l.submit = s.Start
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].submit != order[j].submit {
			return order[i].submit < order[j].submit
		}
		return order[i].id < order[j].id
	})
	return order
}

// Gantt renders the schedule held in the ring: one row per query, time
// scaled to width columns. Legend: '·' waiting in queue, '█' executing, 'x'
// blocked on a producer. The header says so when spans were dropped, since
// the queries they belonged to are then missing or drawn in part.
func (t *Tracer) Gantt(width int) string {
	if t.Len() == 0 {
		return "(no events)\n"
	}
	if width < 20 {
		width = 20
	}
	ls := lifecycles(t.Spans())
	var end time.Duration
	for _, l := range ls {
		if l.hasRoot && l.complete > end {
			end = l.complete
		}
	}
	if end == 0 {
		return "(no completed queries)\n"
	}
	col := func(t time.Duration) int {
		c := int(int64(t) * int64(width-1) / int64(end))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}

	var b strings.Builder
	fmt.Fprintf(&b, "schedule over %v (one row per query; '·' waiting, '█' executing, 'x' blocked)", end.Round(time.Millisecond))
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(&b, " [%d of %d spans dropped from the ring: rows may be missing or partial]", d, t.Total())
	}
	b.WriteByte('\n')
	for _, l := range ls {
		if !l.hasStart || !l.hasRoot {
			continue
		}
		row := make([]rune, width)
		for i := range row {
			row[i] = ' '
		}
		for c := col(l.submit); c <= col(l.start); c++ {
			row[c] = '·'
		}
		for c := col(l.start); c <= col(l.complete); c++ {
			row[c] = '█'
		}
		for _, s := range l.blocked {
			for c := col(s.Start); c <= col(s.End); c++ {
				row[c] = 'x'
			}
		}
		fmt.Fprintf(&b, "q%-4d %s\n", l.id, string(row))
	}
	return b.String()
}

// Summary counts the lifecycle events the ring holds: submitted and
// completed (root spans; a canceled query completes without starting),
// exec-start (waits that ended in a dequeue), and blocked/unblocked
// (producer stalls). Kinds with no events are omitted; a trailing dropped=N
// says how many spans the counts miss.
func (t *Tracer) Summary() string {
	var roots, starts, blocks int
	for _, l := range lifecycles(t.Spans()) {
		if l.hasRoot {
			roots++
		}
		if l.hasStart {
			starts++
		}
		blocks += len(l.blocked)
	}
	var parts []string
	for _, c := range []struct {
		kind string
		n    int
	}{
		{"submitted", roots}, {"exec-start", starts},
		{"blocked", blocks}, {"unblocked", blocks}, {"completed", roots},
	} {
		if c.n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c.kind, c.n))
		}
	}
	if d := t.Dropped(); d > 0 {
		parts = append(parts, fmt.Sprintf("dropped=%d", d))
	}
	return strings.Join(parts, " ")
}
