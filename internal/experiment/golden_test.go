package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mqsched/internal/vm"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestFiguresGolden pins the rendered output of every artifact
// `mqbench -experiment all` prints, plus the timeline report, at a tiny
// deterministic scale: any change to the assembled stack or a sweep that
// moves a single figure shows up as a diff. Regenerate with
//
//	go test ./internal/experiment -run TestFiguresGolden -update
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every sweep")
	}
	type spec struct {
		id       string
		singleOp bool
		run      func(Config) (Table, error)
	}
	// The order and op handling of cmd/mqbench's "all".
	specs := []spec{
		{"e1", true, CachingEffect},
		{"fig4", false, func(c Config) (Table, error) { return ResponseVsThreads(c, nil) }},
		{"fig5", false, func(c Config) (Table, error) { return OverlapVsMemory(c, nil) }},
		{"fig6", false, func(c Config) (Table, error) { return ResponseVsMemory(c, nil) }},
		{"fig7", false, func(c Config) (Table, error) { return BatchVsMemory(c, nil) }},
		{"a1", false, func(c Config) (Table, error) { return CFAlphaAblation(c, nil) }},
		{"a2", false, PageSpaceAblation},
		{"a3", false, BlockingAblation},
		{"a4", false, func(c Config) (Table, error) { return PrefetchAblation(c, nil) }},
		{"x2", false, WorkloadSensitivity},
		{"x3", false, func(c Config) (Table, error) { return SeedSensitivity(c, nil) }},
		{"x1", false, ExtensionsComparison},
		{"v1", true, VolumeComparison},
		{"calibration", true, Calibration},
	}
	ops := []vm.Op{vm.Subsample, vm.Average}
	var b strings.Builder
	for _, s := range specs {
		for i, op := range ops {
			if s.singleOp && i > 0 {
				continue
			}
			tb, err := s.run(Config{Op: op, Clients: 4, QueriesPerClient: 2, Seed: 9})
			if err != nil {
				t.Fatalf("%s: %v", s.id, err)
			}
			b.WriteString(tb.String())
			b.WriteString("\n")
		}
	}
	for _, op := range ops {
		rep, err := TimelineReport(Config{Op: op, Clients: 4, QueriesPerClient: 2, Seed: 9}, nil)
		if err != nil {
			t.Fatalf("timeline: %v", err)
		}
		b.WriteString(rep)
		b.WriteString("\n")
	}
	got := b.String()

	path := filepath.Join("testdata", "figures.golden.txt")
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
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("figures differ from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
			}
		}
	}
}
