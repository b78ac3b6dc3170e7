package experiment

import (
	"testing"
	"time"

	"mqsched/internal/load"
	"mqsched/internal/query"
	"mqsched/internal/stack"
	"mqsched/internal/vm"
)

// smallStack assembles a simulated stack over three 4096² slides and
// generates cfg's paper workload over them.
func smallStack(t *testing.T, clients, perClient int, op vm.Op) (*stack.Stack, [][]vm.Meta) {
	t.Helper()
	cfg := Config{
		Config:  stack.Config{Policy: "cf", Threads: 2, DSBudget: 8 << 20, PSBudget: 4 << 20},
		Op:      op,
		Clients: clients, QueriesPerClient: perClient, Seed: 5, SlideSide: 4096,
	}.withDefaults()
	st, err := vmStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, load.Generate(load.WorkloadConfig{
		Clients: clients, QueriesPerClient: perClient, OutputSide: 128, Op: op, Seed: 5,
	}, st.Table)
}

func TestLaunchInteractive(t *testing.T) {
	st, qs := smallStack(t, 4, 3, vm.Subsample)
	answers, err := launch(st, paperClients(qs, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 12 {
		t.Fatalf("answers = %d", len(answers))
	}
	if m := responseMetrics(answers); m.Makespan <= 0 {
		t.Fatalf("makespan = %v", m.Makespan)
	}
	// Closed loop: a client's answers arrive in its own order, and each of
	// its queries arrives no earlier than its predecessor completed.
	for c, list := range qs {
		k, prev := 0, time.Duration(0)
		for _, a := range answers {
			if k < len(list) && a.res.Meta == query.Meta(list[k]) {
				if a.res.Arrival < prev {
					t.Fatalf("client %d query %d arrived at %v, before its predecessor completed at %v", c, k, a.res.Arrival, prev)
				}
				k, prev = k+1, a.res.Completed
			}
		}
		if k != len(list) {
			t.Fatalf("client %d: matched %d of %d answers in order", c, k, len(list))
		}
	}
}

func TestLaunchBatch(t *testing.T) {
	st, qs := smallStack(t, 3, 3, vm.Average)
	answers, err := launch(st, paperClients(qs, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 9 {
		t.Fatalf("answers = %d", len(answers))
	}
	// Batch: all arrivals at the same instant, answers in round-robin
	// submission order.
	for i, a := range answers {
		if a.res.Arrival != answers[0].res.Arrival {
			t.Fatalf("batch arrivals differ: %v vs %v", a.res.Arrival, answers[0].res.Arrival)
		}
		if want := qs[i%3][i/3]; a.res.Meta != query.Meta(want) {
			t.Fatalf("answer %d is %v, want %v", i, a.res.Meta, want)
		}
	}
}

func TestThinkTime(t *testing.T) {
	st, qs := smallStack(t, 1, 2, vm.Subsample)
	answers, err := launch(st, []client{{queries: metas(qs[0]), closed: true, think: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 {
		t.Fatalf("answers = %d", len(answers))
	}
	if gap := answers[1].res.Arrival - answers[0].res.Completed; gap < time.Second {
		t.Fatalf("think-time gap = %v", gap)
	}
}

// TestLaunchTimedArrivals: an open client releases each query at its
// arrival instant without waiting for earlier answers.
func TestLaunchTimedArrivals(t *testing.T) {
	st, qs := smallStack(t, 1, 3, vm.Subsample)
	at := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	answers, err := launch(st, []client{{queries: metas(qs[0]), at: at}})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range answers {
		if a.at != at[i] || a.res.Arrival != at[i] {
			t.Fatalf("answer %d: scheduled %v, arrived %v, want %v", i, a.at, a.res.Arrival, at[i])
		}
	}
	if answers[1].res.Arrival >= answers[0].res.Completed {
		t.Fatalf("second query waited for the first answer (arrived %v, first completed %v)",
			answers[1].res.Arrival, answers[0].res.Completed)
	}
}
