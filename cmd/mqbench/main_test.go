package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mqsched/internal/experiment"
	"mqsched/internal/load"
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

// TestDumpWorkloadUsesRunSlides: -dumpworkload generates over the slides
// -slide-side sets, so every window fits a 2048² slide.
func TestDumpWorkloadUsesRunSlides(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.json")
	base := experiment.Config{Clients: 3, QueriesPerClient: 3, Seed: 1, SlideSide: 2048}
	if err := dumpWorkload(path, base, vm.Subsample); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	queries, err := load.LoadWorkload(f, load.PaperSlides(2048))
	if err != nil {
		t.Fatalf("dumped workload does not fit its own slides: %v", err)
	}
	if len(queries) != 3 || len(queries[0]) != 3 {
		t.Fatalf("dumped %d clients, first with %d queries; want 3 x 3", len(queries), len(queries[0]))
	}
}

// TestReplayRejectsForeignSlides: -workload validates against the run's
// slides, so replaying a 30000² workload at -slide-side 2048 is an error,
// not a run whose windows read nothing.
func TestReplayRejectsForeignSlides(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.json")
	base := experiment.Config{Config: stack.Config{Policy: "fifo"}, Clients: 2, QueriesPerClient: 2, Seed: 1}
	if err := dumpWorkload(path, base, vm.Subsample); err != nil {
		t.Fatal(err)
	}
	base.SlideSide = 2048
	err := replayWorkload(path, base, vm.Subsample, "")
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("replay over smaller slides: err = %v, want an out-of-bounds error", err)
	}
}
