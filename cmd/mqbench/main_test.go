package main

import (
	"fmt"
	"strings"
	"testing"

	"mqsched/internal/experiment"
	"mqsched/internal/stack"
	"mqsched/internal/vm"
)

// TestSpanBreakdownNamesDrop checks that the printed span summary says
// what it covers: with a ring too small for the run it names the dropped
// spans and counts fewer covered queries than were run.
func TestSpanBreakdownNamesDrop(t *testing.T) {
	for _, capacity := range []int{64, experiment.FullRunSpans} {
		m, err := experiment.Run(experiment.Config{
			Config:           stack.Config{Policy: "cnbf", TraceSpans: true, TraceCapacity: capacity},
			Op:               vm.Subsample,
			Clients:          2,
			QueriesPerClient: 2,
			Seed:             1,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := spanBreakdown(m)
		head := strings.SplitN(out, "\n", 2)[0]
		dropped := m.Spans.Dropped()
		if !strings.Contains(head, fmt.Sprintf("of %d queries run; %d spans dropped", m.Queries, dropped)) {
			t.Fatalf("capacity %d: header %q does not state coverage (%d dropped)", capacity, head, dropped)
		}
		whole := fmt.Sprintf("over %d of %d", m.Queries, m.Queries)
		if capacity == 64 && (dropped == 0 || strings.Contains(head, whole)) {
			t.Fatalf("capacity 64: want a partial capture, got %q", head)
		}
		if capacity == experiment.FullRunSpans && (dropped != 0 || !strings.Contains(head, whole)) {
			t.Fatalf("full ring: want every query covered, got %q", head)
		}
	}
}
