package main

import (
	"testing"

	"mqsched"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/sched"
	"mqsched/internal/vm"
)

// The wrappers must leave the program unchanged: if an optional interface
// were lost, intra-query parallelism, proactive materialization, batched
// reads or prefetch would silently turn off in the traced run.

func TestTracedAppForwardsOptionalInterfaces(t *testing.T) {
	inner := vm.New(mqsched.NewSlideTable(slides()...))
	app := (&seams{}).app(inner)
	pc, ok := app.(query.ParallelComputer)
	if !ok {
		t.Fatal("traced app is not a query.ParallelComputer")
	}
	pc.SetComputeParallelism(3)
	if inner.Parallelism != 3 {
		t.Errorf("SetComputeParallelism did not reach the application")
	}
	if _, ok := app.(query.Aggregator); !ok {
		t.Error("traced app is not a query.Aggregator")
	}
	if _, ok := app.(sched.CPUCostEstimator); !ok {
		t.Error("traced app does not estimate QCPUCost")
	}
}

// fakeReader records which reader methods were called.
type fakeReader struct{ calls map[string]int }

func (f *fakeReader) ReadPage(rt.Ctx, string, int) []byte { f.calls["ReadPage"]++; return nil }
func (f *fakeReader) ReadPages(_ rt.Ctx, _ string, p []int) [][]byte {
	f.calls["ReadPages"]++
	return make([][]byte, len(p))
}
func (f *fakeReader) IOBatchPages() int             { f.calls["IOBatchPages"]++; return 4 }
func (f *fakeReader) StartFetch(string, int)        { f.calls["StartFetch"]++ }
func (f *fakeReader) StartFetchBatch(string, []int) { f.calls["StartFetchBatch"]++ }

func TestTimedReaderForwardsOptionalInterfaces(t *testing.T) {
	f := &fakeReader{calls: map[string]int{}}
	var pr query.PageReader = timedReader{fullReader: f, log: &readLog{}}
	br, chunk := query.BatchOf(pr)
	if br == nil || chunk != 4 {
		t.Fatalf("BatchOf(timed reader) = %v, %d; want the batch reader with 4", br, chunk)
	}
	br.ReadPages(nil, "s", []int{1, 2})
	pr.ReadPage(nil, "s", 1)
	pf, ok := pr.(query.Prefetcher)
	if !ok {
		t.Fatal("timed reader is not a query.Prefetcher")
	}
	pf.StartFetch("s", 1)
	bpf, ok := pr.(query.BatchPrefetcher)
	if !ok {
		t.Fatal("timed reader is not a query.BatchPrefetcher")
	}
	bpf.StartFetchBatch("s", []int{1})
	for _, m := range []string{"ReadPage", "ReadPages", "IOBatchPages", "StartFetch", "StartFetchBatch"} {
		if f.calls[m] != 1 {
			t.Errorf("%s reached the reader %d times, want 1", m, f.calls[m])
		}
	}
	if n := len(pr.(timedReader).log.spans); n != 2 {
		t.Errorf("logged %d read intervals, want 2", n)
	}
}

func TestScanCountsEqualTracedAndUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scan workload twice")
	}
	// seconds 0: the minimum of setupReps rounds.
	plain, err := runScan(7, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sm := &seams{}
	traced, err := runScan(7, 0, sm)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.rounds) != setupReps || len(traced.rounds) != setupReps {
		t.Fatalf("rounds %d and %d, want %d", len(plain.rounds), len(traced.rounds), setupReps)
	}
	if bad := compareRounds(plain.rounds, traced.rounds); len(bad) > 0 {
		t.Errorf("tracing changed the program's work: %v", bad)
	}
	if sm.compute.Load() == 0 || sm.gen.Load() == 0 || sm.read.Load() == 0 {
		t.Errorf("traced scan timed nothing: %+v", sm)
	}
	if sm.untimed.Load() != 0 {
		t.Errorf("%d readers passed on untimed", sm.untimed.Load())
	}
	if f := append(faultsOf(plain), faultsOf(traced)...); len(f) > 0 {
		t.Errorf("faults: %v", f)
	}
}
