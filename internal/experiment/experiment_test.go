package experiment

import (
	"strings"
	"testing"

	"mqsched/internal/stack"
	"mqsched/internal/vm"
)

// moderate is a workload large enough to exhibit the paper's qualitative
// effects while keeping `go test` fast (~100ms per run).
func moderate(op vm.Op) Config {
	return Config{Op: op, Clients: 10, QueriesPerClient: 6, Seed: 4}
}

func TestRunBasics(t *testing.T) {
	m, err := Run(moderate(vm.Subsample))
	if err != nil {
		t.Fatal(err)
	}
	if m.Queries != 60 {
		t.Fatalf("Queries = %d", m.Queries)
	}
	if m.TrimmedResponse <= 0 || m.Makespan <= 0 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.MeanWait+m.MeanExec < m.MeanResponse-1e-9 {
		t.Fatalf("wait %v + exec %v < response %v", m.MeanWait, m.MeanExec, m.MeanResponse)
	}
	if m.Server.Completed != 60 {
		t.Fatalf("server completed %d", m.Server.Completed)
	}
	if m.Disk.Reads == 0 || m.AvgOverlap <= 0 {
		t.Fatalf("disk=%d overlap=%v", m.Disk.Reads, m.AvgOverlap)
	}
}

func TestRunUnknownPolicy(t *testing.T) {
	if _, err := Run(Config{Config: stack.Config{Policy: "zzz"}, Clients: 1, QueriesPerClient: 1}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(moderate(vm.Average))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(moderate(vm.Average))
	if err != nil {
		t.Fatal(err)
	}
	if a.TrimmedResponse != b.TrimmedResponse || a.Makespan != b.Makespan || a.Disk.Reads != b.Disk.Reads {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// §5: caching intermediate results improves performance even for FIFO and
// SJF.
func TestCachingImprovesFIFOAndSJF(t *testing.T) {
	for _, pol := range []string{"fifo", "sjf"} {
		on := moderate(vm.Subsample)
		on.Policy = pol
		off := on
		off.DSBudget = -1
		mOn, err := Run(on)
		if err != nil {
			t.Fatal(err)
		}
		mOff, err := Run(off)
		if err != nil {
			t.Fatal(err)
		}
		if mOn.TrimmedResponse >= mOff.TrimmedResponse {
			t.Errorf("%s: caching did not help (%.2fs on vs %.2fs off)", pol, mOn.TrimmedResponse, mOff.TrimmedResponse)
		}
	}
}

// Figure 4: FIFO is discernibly worse than the reuse-aware strategies at
// low thread counts.
func TestFIFOWorstAtLowThreads(t *testing.T) {
	base := moderate(vm.Subsample)
	base.Threads = 2
	fifoCfg := base
	fifoCfg.Policy = "fifo"
	fifo, err := Run(fifoCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"muf", "cf", "cnbf"} {
		cfg := base
		cfg.Policy = pol
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.TrimmedResponse >= fifo.TrimmedResponse {
			t.Errorf("%s (%.2fs) not better than FIFO (%.2fs)", pol, m.TrimmedResponse, fifo.TrimmedResponse)
		}
	}
}

// Figure 5: average overlap grows with data store memory.
func TestOverlapGrowsWithMemory(t *testing.T) {
	for _, pol := range []string{"fifo", "cf"} {
		small := moderate(vm.Subsample)
		small.Policy = pol
		small.DSBudget = 16 * MB
		big := small
		big.DSBudget = 256 * MB
		mSmall, err := Run(small)
		if err != nil {
			t.Fatal(err)
		}
		mBig, err := Run(big)
		if err != nil {
			t.Fatal(err)
		}
		if mBig.AvgOverlap <= mSmall.AvgOverlap {
			t.Errorf("%s: overlap did not grow with memory (%.3f at 16MB vs %.3f at 256MB)",
				pol, mSmall.AvgOverlap, mBig.AvgOverlap)
		}
	}
}

// Figure 7: for a batch on a small data store, CNBF beats FIFO on total
// execution time.
func TestCNBFBeatsFIFOOnBatch(t *testing.T) {
	base := moderate(vm.Subsample)
	base.Batch = true
	base.DSBudget = 32 * MB
	fifoCfg := base
	fifoCfg.Policy = "fifo"
	cnbfCfg := base
	cnbfCfg.Policy = "cnbf"
	fifo, err := Run(fifoCfg)
	if err != nil {
		t.Fatal(err)
	}
	cnbf, err := Run(cnbfCfg)
	if err != nil {
		t.Fatal(err)
	}
	if cnbf.Makespan >= fifo.Makespan {
		t.Errorf("CNBF batch %.1fs not faster than FIFO %.1fs", cnbf.Makespan, fifo.Makespan)
	}
}

// Calibration: the subsampling implementation is I/O-intensive, the
// averaging one roughly balanced (§5).
func TestCPUToIORatios(t *testing.T) {
	sub := moderate(vm.Subsample)
	sub.Policy = "fifo"
	sub.DSBudget = -1
	avg := sub
	avg.Op = vm.Average
	mSub, err := Run(sub)
	if err != nil {
		t.Fatal(err)
	}
	mAvg, err := Run(avg)
	if err != nil {
		t.Fatal(err)
	}
	if mSub.CPUToIORatio > 0.15 {
		t.Errorf("subsampling ratio %.3f, want <= 0.15 (paper: 0.04-0.06)", mSub.CPUToIORatio)
	}
	if mAvg.CPUToIORatio < 0.4 || mAvg.CPUToIORatio > 2.5 {
		t.Errorf("averaging ratio %.3f, want near 1", mAvg.CPUToIORatio)
	}
	if mAvg.CPUToIORatio < 5*mSub.CPUToIORatio {
		t.Errorf("averaging (%.3f) should be far more CPU-heavy than subsampling (%.3f)",
			mAvg.CPUToIORatio, mSub.CPUToIORatio)
	}
}

// The PS dedup ablation must strictly reduce disk reads.
func TestPSDedupReducesReads(t *testing.T) {
	on := moderate(vm.Subsample)
	on.Policy = "fifo"
	off := on
	off.DisablePSDedup = true
	mOn, err := Run(on)
	if err != nil {
		t.Fatal(err)
	}
	mOff, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if mOn.Disk.Reads > mOff.Disk.Reads {
		t.Errorf("dedup increased reads: %d vs %d", mOn.Disk.Reads, mOff.Disk.Reads)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "T", Header: []string{"a", "b"}, Notes: []string{"n"}}
	tb.AddRow("x", 1.5)
	tb.AddRow("longer", 42)
	s := tb.String()
	for _, want := range []string{"== T ==", "a", "longer", "1.500", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,b\n") || !strings.Contains(csv, "x,1.500") {
		t.Errorf("csv output wrong:\n%s", csv)
	}
	// CSV escaping.
	tb2 := Table{Header: []string{`he"ader`, "with,comma"}}
	tb2.AddRow("v", "w")
	if !strings.Contains(tb2.CSV(), `"he""ader","with,comma"`) {
		t.Errorf("csv escaping wrong: %s", tb2.CSV())
	}
}

// All sweep constructors run end-to-end at tiny scale.
func TestSweepsRun(t *testing.T) {
	base := Config{Op: vm.Subsample, Clients: 4, QueriesPerClient: 2, Seed: 9}
	type sweep struct {
		name string
		fn   func() (Table, error)
	}
	sweeps := []sweep{
		{"e1", func() (Table, error) { return CachingEffect(base) }},
		{"fig4", func() (Table, error) { return ResponseVsThreads(base, []int{1, 2}) }},
		{"fig5", func() (Table, error) { return OverlapVsMemory(base, []int64{32 * MB}) }},
		{"fig6", func() (Table, error) { return ResponseVsMemory(base, []int64{32 * MB}) }},
		{"fig7", func() (Table, error) { return BatchVsMemory(base, []int64{32 * MB}) }},
		{"a1", func() (Table, error) { return CFAlphaAblation(base, []float64{0.2}) }},
		{"a2", func() (Table, error) { return PageSpaceAblation(base) }},
		{"a3", func() (Table, error) { return BlockingAblation(base) }},
		{"cal", func() (Table, error) { return Calibration(base) }},
	}
	for _, s := range sweeps {
		tb, err := s.fn()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if len(tb.Rows) == 0 || tb.Title == "" {
			t.Fatalf("%s: empty table", s.name)
		}
	}
}

func TestExtensionsAndStudiesRun(t *testing.T) {
	base := Config{Op: vm.Subsample, Clients: 4, QueriesPerClient: 2, Seed: 9}
	if tb, err := WorkloadSensitivity(base); err != nil || len(tb.Rows) != 6 {
		t.Fatalf("x2: %v rows=%d", err, len(tb.Rows))
	}
	if tb, err := SeedSensitivity(base, []int64{1, 2}); err != nil || len(tb.Rows) != 6 {
		t.Fatalf("x3: %v rows=%d", err, len(tb.Rows))
	}
	if tb, err := PrefetchAblation(base, []int{0, 2}); err != nil || len(tb.Rows) != 2 {
		t.Fatalf("a4: %v rows=%d", err, len(tb.Rows))
	}
	if tb, err := VolumeComparison(base); err != nil || len(tb.Rows) != 6 {
		t.Fatalf("v1: %v rows=%d", err, len(tb.Rows))
	}
	rep, err := TimelineReport(base, []int{2})
	if err != nil || rep == "" {
		t.Fatalf("timeline: %v", err)
	}
	// Extension policies run end to end.
	for _, pol := range []string{"combined", "autotune", "ra"} {
		cfg := base
		cfg.Policy = pol
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
	}
}

// Every policy (originals and extensions) completes the same workload with
// full accounting and is individually deterministic.
func TestAllPoliciesCompleteAndDeterministic(t *testing.T) {
	pols := append(append([]string{}, Policies...), "combined", "autotune", "ra")
	for _, pol := range pols {
		cfg := Config{Config: stack.Config{Policy: pol}, Op: vm.Subsample, Clients: 6, QueriesPerClient: 3, Seed: 8}
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if a.Queries != 18 || a.Server.Completed != 18 {
			t.Fatalf("%s: %d queries, %d completed", pol, a.Queries, a.Server.Completed)
		}
		if a.AvgOverlap < 0 || a.AvgOverlap > 1 {
			t.Fatalf("%s: overlap %v", pol, a.AvgOverlap)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if a.TrimmedResponse != b.TrimmedResponse || a.Disk.Reads != b.Disk.Reads {
			t.Fatalf("%s: non-deterministic (%v vs %v)", pol, a.TrimmedResponse, b.TrimmedResponse)
		}
	}
}

func TestRunWorkloadExplicit(t *testing.T) {
	cfg := Config{Op: vm.Subsample, Clients: 2, QueriesPerClient: 2, Seed: 5}
	// Replaying the exact workload Run would generate must give identical
	// metrics.
	queries := cfg.Workload()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(cfg, queries)
	if err != nil {
		t.Fatal(err)
	}
	if a.TrimmedResponse != b.TrimmedResponse || a.Disk.Reads != b.Disk.Reads {
		t.Fatalf("replay differs: %v vs %v", a.TrimmedResponse, b.TrimmedResponse)
	}
}
