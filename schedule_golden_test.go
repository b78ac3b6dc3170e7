package mqsched_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mqsched"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// scheduleWorkload runs the examples/scheduleviz workload — three families
// of overlapping queries interleaved in arrival order — under policy with 3
// query threads and tracing on, and returns the traced system.
func scheduleWorkload(t *testing.T, policy string) *mqsched.System {
	t.Helper()
	const slideSide = int64(16384)
	table := mqsched.NewSlideTable(mqsched.Slide{Name: "s", Width: slideSide, Height: slideSide})
	sys, err := mqsched.New(mqsched.Config{
		Mode:    mqsched.Simulated,
		Policy:  policy,
		Threads: 3,
		Trace:   true,
	}, table)
	if err != nil {
		t.Fatal(err)
	}
	err = sys.RunWith(func(ctx mqsched.Ctx) {
		var tickets []*mqsched.Ticket
		submit := func(x0, y0, side, zoom int64) {
			x0, y0 = x0/zoom*zoom, y0/zoom*zoom
			q := mqsched.NewVMQuery("s", mqsched.R(x0, y0, x0+side*zoom, y0+side*zoom), zoom, mqsched.Subsample)
			tk, err := sys.Submit(q)
			if err != nil {
				t.Error(err)
				return
			}
			tickets = append(tickets, tk)
		}
		for round := int64(0); round < 4; round++ {
			submit(0, 0, 768, 8)
			submit(1024, 9000, 768, 4)
			submit(9000, 1000+round*256, 768, 2)
		}
		for _, tk := range tickets {
			tk.Wait(ctx)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestScheduleGolden pins the rendered schedule (Gantt chart and event
// summary) of the scheduleviz workload under four ranking strategies, so a
// change to how the schedule is recorded or drawn shows up as a diff.
// Regenerate with
//
//	go test . -run TestScheduleGolden -update
func TestScheduleGolden(t *testing.T) {
	var b strings.Builder
	for _, policy := range []string{"fifo", "cnbf", "cf", "sjf"} {
		sys := scheduleWorkload(t, policy)
		fmt.Fprintf(&b, "--- %s ---\n%sevents: %s\n\n", policy, sys.Trace().Gantt(100), sys.Trace().Summary())
	}
	got := b.String()

	path := filepath.Join("testdata", "schedule.golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Fatalf("schedule differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
