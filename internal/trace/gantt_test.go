package trace

import (
	"strings"
	"testing"
	"time"
)

// recordQuery finishes one query's lifecycle spans on tr: submitted at
// submit, dequeued at start, stalled over each blocks pair, completed at end.
func recordQuery(tr *Tracer, clk *manualClock, id int64, submit, start, end time.Duration, blocks ...[2]time.Duration) {
	clk.now = submit
	root := tr.StartRoot(id, SubServer, OpQuery)
	wait := root.Child(SubSched, OpWait)
	clk.now = start
	wait.Finish()
	for _, b := range blocks {
		clk.now = b[0]
		blk := root.Child(SubServer, OpBlock, I64(AttrProducer, 0))
		clk.now = b[1]
		blk.Finish()
	}
	clk.now = end
	root.Finish()
}

func TestNilTracerGantt(t *testing.T) {
	var tr *Tracer
	if tr.Gantt(40) == "" {
		t.Fatal("nil tracer Gantt should render a placeholder")
	}
	if tr.Summary() != "" {
		t.Fatalf("nil tracer Summary = %q", tr.Summary())
	}
}

func TestGantt(t *testing.T) {
	clk := &manualClock{}
	tr := NewTracer(clk.Now, TracerOptions{})
	// q1: waits 0-2s, executes 2-6s, blocked 3-4s.
	recordQuery(tr, clk, 1, 0, 2*time.Second, 6*time.Second, [2]time.Duration{3 * time.Second, 4 * time.Second})
	// q2: starts immediately, completes at 4s.
	recordQuery(tr, clk, 2, 0, 0, 4*time.Second)

	g := tr.Gantt(60)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Fatalf("gantt:\n%s", g)
	}
	if strings.Contains(lines[0], "dropped") {
		t.Fatalf("header names drops with none: %q", lines[0])
	}
	if !strings.Contains(lines[1], "q1") || !strings.Contains(lines[1], "·") ||
		!strings.Contains(lines[1], "█") || !strings.Contains(lines[1], "x") {
		t.Fatalf("q1 row missing phases: %q", lines[1])
	}
	if strings.Contains(lines[2], "x") {
		t.Fatalf("q2 row should have no blocked phase: %q", lines[2])
	}
	// Tiny width clamps.
	if g := tr.Gantt(1); g == "" {
		t.Fatal("small-width Gantt empty")
	}
}

func TestGanttEdgeCases(t *testing.T) {
	clk := &manualClock{}
	tr := NewTracer(clk.Now, TracerOptions{})
	if got := tr.Gantt(40); !strings.Contains(got, "no events") {
		t.Fatalf("empty tracer: %q", got)
	}
	// A query still in flight has only its wait span finished.
	root := tr.StartRoot(1, SubServer, OpQuery)
	root.Child(SubSched, OpWait).Finish()
	if got := tr.Gantt(40); !strings.Contains(got, "no completed") {
		t.Fatalf("no completions: %q", got)
	}
	// A canceled query completes without a row: its wait ended in no
	// dequeue.
	clk.now = time.Second
	canceled := tr.StartRoot(2, SubServer, OpQuery)
	clk.now = 2 * time.Second
	canceled.Child(SubSched, OpWait).Finish(Str(AttrOutcome, "canceled"))
	canceled.Finish(Str(AttrOutcome, "canceled"))
	recordQuery(tr, clk, 3, 0, time.Second, 3*time.Second)
	g := tr.Gantt(40)
	if strings.Contains(g, "q2") || !strings.Contains(g, "q3") {
		t.Fatalf("canceled query drawn or finished one missing:\n%s", g)
	}
	if s := tr.Summary(); s != "submitted=2 exec-start=2 completed=2" {
		t.Fatalf("summary = %q", s)
	}
}

func TestGanttNamesDroppedSpans(t *testing.T) {
	clk := &manualClock{}
	tr := NewTracer(clk.Now, TracerOptions{Capacity: 4})
	for i := int64(1); i <= 3; i++ {
		recordQuery(tr, clk, i, 0, time.Second, 2*time.Second)
	}
	g := tr.Gantt(40)
	if !strings.Contains(strings.SplitN(g, "\n", 2)[0], "2 of 6 spans dropped") {
		t.Fatalf("header does not name the drop:\n%s", g)
	}
	if s := tr.Summary(); !strings.HasSuffix(s, "dropped=2") {
		t.Fatalf("summary = %q", s)
	}
}

func TestSummary(t *testing.T) {
	clk := &manualClock{}
	tr := NewTracer(clk.Now, TracerOptions{})
	recordQuery(tr, clk, 1, 0, time.Second, 3*time.Second, [2]time.Duration{time.Second, 2 * time.Second})
	recordQuery(tr, clk, 2, 0, 0, time.Second)
	if s := tr.Summary(); s != "submitted=2 exec-start=2 blocked=1 unblocked=1 completed=2" {
		t.Fatalf("summary = %q", s)
	}
}
