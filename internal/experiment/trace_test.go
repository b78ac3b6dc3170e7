package experiment

import (
	"strings"
	"testing"

	"mqsched/internal/stack"
	"mqsched/internal/trace"
	"mqsched/internal/traceviz"
	"mqsched/internal/vm"
)

// TestRunWorkloadSpanCoverage runs a small traced configuration end to end
// and checks that every subsystem contributes spans to the same query's
// tree — the wiring from server through sched, datastore, pagespace, and
// disk.
func TestRunWorkloadSpanCoverage(t *testing.T) {
	m, err := Run(Config{
		Config:           stack.Config{Policy: "cf", TraceSpans: true, TraceCapacity: 1 << 15},
		Op:               vm.Subsample,
		Clients:          2,
		QueriesPerClient: 2,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Spans == nil {
		t.Fatal("Metrics.Spans is nil with TraceSpans set")
	}
	spans := m.Spans.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}

	subsystems := map[int64]map[string]bool{}
	ids := map[uint64]bool{}
	for _, s := range spans {
		if subsystems[s.QueryID] == nil {
			subsystems[s.QueryID] = map[string]bool{}
		}
		subsystems[s.QueryID][s.Subsystem] = true
		ids[s.ID] = true
	}
	want := []string{"server", "sched", "datastore", "pagespace", "disk"}
	covered := 0
	for _, subs := range subsystems {
		all := true
		for _, w := range want {
			if !subs[w] {
				all = false
				break
			}
		}
		if all {
			covered++
		}
	}
	if covered == 0 {
		t.Fatalf("no query has spans from all of %v; got per-query coverage %v", want, subsystems)
	}

	// Every non-root span's parent must be a retained span (nothing was
	// dropped at this capacity), and it must belong to the same query.
	byID := map[uint64]trace.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d (%s/%s) has unknown parent %d", s.ID, s.Subsystem, s.Op, s.Parent)
		}
		if p.QueryID != s.QueryID {
			t.Fatalf("span %d query %d has parent %d of query %d", s.ID, s.QueryID, p.ID, p.QueryID)
		}
	}

	bs := traceviz.Breakdown(traceviz.LoadSpans("run", spans, nil))
	if len(bs) != 1 || bs[0].Queries != m.Queries || bs[0].Truncated != 0 {
		t.Errorf("Breakdown = %+v, want one strategy covering %d whole queries", bs, m.Queries)
	}
}

// TestTimelineRefusesPartialCapture checks that the timeline is drawn only
// from a whole run: a ring that dropped spans yields an error naming the
// drop, not sparklines.
func TestTimelineRefusesPartialCapture(t *testing.T) {
	cfg := Config{
		Config:           stack.Config{Policy: "cnbf", TraceSpans: true, TraceCapacity: 64},
		Op:               vm.Subsample,
		Clients:          2,
		QueriesPerClient: 2,
		Seed:             1,
	}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Spans.Dropped() == 0 {
		t.Fatalf("capacity 64 dropped nothing (%d spans)", m.Spans.Total())
	}
	rows, err := timelineRows(m.Spans, 4, timelineWidth)
	if err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("timelineRows = %q, %v; want a dropped-spans error", rows, err)
	}
	if rows != "" {
		t.Fatalf("partial capture drew %q", rows)
	}

	cfg.TraceCapacity = FullRunSpans
	if m, err = Run(cfg); err != nil {
		t.Fatal(err)
	}
	rows, err = timelineRows(m.Spans, 4, timelineWidth)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"disk util", "executing", "waiting"} {
		if !strings.Contains(rows, name) {
			t.Fatalf("timeline lacks %q row:\n%s", name, rows)
		}
	}
}
