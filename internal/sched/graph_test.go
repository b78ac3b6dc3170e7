package sched

import (
	"math/rand"
	"strings"
	"testing"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/rt"
	"mqsched/internal/sim"
	"mqsched/internal/testapp"
)

// rig builds a graph over the toy range-scan app on a 1000x1000 dataset.
func rig(p Policy) (*Graph, *testapp.App) {
	l := dataset.New("d", 1000, 1000, 1, 100)
	app := testapp.New(dataset.NewTable(l))
	if p == nil {
		p = FIFO{}
	}
	if sjf, ok := p.(SJF); ok && sjf.App == nil {
		p = SJF{App: app}
	}
	if bp, ok := p.(Batch); ok && bp.App == nil {
		p = Batch{App: app, Starvation: bp.Starvation}
	}
	g := New(rt.NewSim(sim.New(), 1), app, p)
	return g, app
}

func meta(r geom.Rect) testapp.Meta { return testapp.Meta{DS: "d", Rect: r} }

func TestInsertCreatesEdges(t *testing.T) {
	g, _ := rig(FIFO{})
	a := g.Insert(meta(geom.R(0, 0, 100, 100)))
	b := g.Insert(meta(geom.R(50, 0, 150, 100)))    // half-overlaps a
	c := g.Insert(meta(geom.R(500, 500, 600, 600))) // disjoint

	// a covers half of b: w(a,b) = 0.5 * qoutsize(a) = 0.5*10000.
	if w, ok := g.EdgeWeight(a, b); !ok || w != 5000 {
		t.Fatalf("w(a,b) = %v,%v", w, ok)
	}
	if w, ok := g.EdgeWeight(b, a); !ok || w != 5000 {
		t.Fatalf("w(b,a) = %v,%v", w, ok)
	}
	if _, ok := g.EdgeWeight(a, c); ok {
		t.Fatal("disjoint nodes must not share an edge")
	}
	if g.Len() != 3 || g.WaitingCount() != 3 {
		t.Fatalf("Len=%d Waiting=%d", g.Len(), g.WaitingCount())
	}
	st := g.Stats()
	if st.Inserted != 3 || st.EdgePairs != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFIFOOrder(t *testing.T) {
	g, _ := rig(FIFO{})
	a := g.Insert(meta(geom.R(0, 0, 10, 10)))
	b := g.Insert(meta(geom.R(20, 20, 30, 30)))
	c := g.Insert(meta(geom.R(40, 40, 50, 50)))
	for i, want := range []*Node{a, b, c} {
		if got := g.Dequeue(); got != want {
			t.Fatalf("dequeue %d: got node %d, want %d", i, got.ID, want.ID)
		}
	}
	if g.Dequeue() != nil {
		t.Fatal("empty dequeue should return nil")
	}
}

func TestDequeueSetsExecuting(t *testing.T) {
	g, _ := rig(FIFO{})
	a := g.Insert(meta(geom.R(0, 0, 10, 10)))
	n := g.Dequeue()
	if n != a || n.State() != Executing || n.ExecSeq != 1 {
		t.Fatalf("node %d state=%v execSeq=%d", n.ID, n.State(), n.ExecSeq)
	}
	if g.WaitingCount() != 0 || g.Len() != 1 {
		t.Fatalf("Waiting=%d Len=%d", g.WaitingCount(), g.Len())
	}
}

func TestMUFPrefersUsefulNode(t *testing.T) {
	g, _ := rig(MUF{})
	// hub overlaps both spokes; the spokes overlap only the hub.
	hub := g.Insert(meta(geom.R(0, 0, 200, 200)))
	g.Insert(meta(geom.R(0, 0, 100, 100)))
	g.Insert(meta(geom.R(100, 100, 200, 200)))
	if got := g.Dequeue(); got != hub {
		t.Fatalf("MUF dequeued node %d, want hub %d (rank %v)", got.ID, hub.ID, got.Rank())
	}
}

func TestMUFIgnoresNonWaitingConsumers(t *testing.T) {
	g, _ := rig(MUF{})
	a := g.Insert(meta(geom.R(0, 0, 100, 100)))
	b := g.Insert(meta(geom.R(0, 0, 100, 100))) // identical: strong mutual edges
	_ = b
	// Dequeue a (FIFO tie-break on equal ranks). Once a is EXECUTING, b's
	// usefulness towards a vanishes (a is no longer WAITING).
	first := g.Dequeue()
	if first != a {
		t.Fatalf("first dequeue = %d", first.ID)
	}
	if b.Rank() != 0 {
		t.Fatalf("b's MUF rank after a left WAITING = %v, want 0", b.Rank())
	}
}

func TestFFAvoidsDependentNode(t *testing.T) {
	g, _ := rig(FF{})
	// b depends heavily on a (and vice versa); c is independent.
	g.Insert(meta(geom.R(0, 0, 100, 100)))
	g.Insert(meta(geom.R(0, 0, 100, 100)))
	c := g.Insert(meta(geom.R(800, 800, 900, 900)))
	// c has no pending dependencies: rank 0 beats the negative ranks.
	if got := g.Dequeue(); got != c {
		t.Fatalf("FF dequeued %d, want independent %d", got.ID, c.ID)
	}
}

func TestCFPrefersCachedProducers(t *testing.T) {
	g, _ := rig(CF{Alpha: 0.2})
	prod := g.Insert(meta(geom.R(0, 0, 100, 100)))
	cons := g.Insert(meta(geom.R(0, 0, 100, 100)))    // depends on prod
	other := g.Insert(meta(geom.R(800, 0, 900, 100))) // independent

	// Execute and cache the producer.
	if got := g.Dequeue(); got != prod {
		t.Fatalf("expected prod first (FIFO ties), got %d", got.ID)
	}
	g.MarkCached(prod)
	// Now cons has a CACHED producer: rank 10000 > other's 0.
	if got := g.Dequeue(); got != cons {
		t.Fatalf("CF dequeued %d (rank %v), want cons %d (rank %v)",
			got.ID, got.Rank(), cons.ID, cons.Rank())
	}
	_ = other
}

func TestCFAlphaWeighting(t *testing.T) {
	g, _ := rig(CF{Alpha: 0.5})
	prod := g.Insert(meta(geom.R(0, 0, 100, 100)))
	cons := g.Insert(meta(geom.R(0, 0, 100, 100)))
	if g.Dequeue() != prod {
		t.Fatal("prod should dequeue first")
	}
	// prod EXECUTING: cons rank = 0.5 * 10000.
	if cons.Rank() != 5000 {
		t.Fatalf("cons rank = %v, want 5000", cons.Rank())
	}
	g.MarkCached(prod)
	if cons.Rank() != 10000 {
		t.Fatalf("cons rank after cache = %v, want 10000", cons.Rank())
	}
}

func TestCNBFPenalizesExecutingProducers(t *testing.T) {
	g, _ := rig(CNBF{})
	prod := g.Insert(meta(geom.R(0, 0, 100, 100)))
	cons := g.Insert(meta(geom.R(0, 0, 100, 100)))
	indep := g.Insert(meta(geom.R(800, 0, 900, 100)))
	if g.Dequeue() != prod {
		t.Fatal("prod should dequeue first")
	}
	// cons rank = -10000 while prod executes; indep rank 0 wins.
	if cons.Rank() != -10000 {
		t.Fatalf("cons rank = %v", cons.Rank())
	}
	if got := g.Dequeue(); got != indep {
		t.Fatalf("CNBF dequeued %d, want independent %d", got.ID, indep.ID)
	}
	// Once prod's result is cached, cons becomes attractive.
	g.MarkCached(prod)
	if cons.Rank() != 10000 {
		t.Fatalf("cons rank after cache = %v", cons.Rank())
	}
}

func TestSJFOrder(t *testing.T) {
	g, _ := rig(SJF{})
	big := g.Insert(meta(geom.R(0, 0, 500, 500)))
	small := g.Insert(meta(geom.R(700, 700, 750, 750)))
	if got := g.Dequeue(); got != small {
		t.Fatalf("SJF dequeued %d, want small %d", got.ID, small.ID)
	}
	if got := g.Dequeue(); got != big {
		t.Fatalf("SJF second dequeue %d", got.ID)
	}
}

func TestRemoveDropsEdgesAndReRanks(t *testing.T) {
	g, _ := rig(CF{Alpha: 0.2})
	prod := g.Insert(meta(geom.R(0, 0, 100, 100)))
	cons := g.Insert(meta(geom.R(0, 0, 100, 100)))
	if g.Dequeue() != prod {
		t.Fatal("prod first")
	}
	g.MarkCached(prod)
	if cons.Rank() != 10000 {
		t.Fatalf("cons rank = %v", cons.Rank())
	}
	// Swap out the producer's result: "the scheduler removes the node and
	// all edges whose source or destination is q_i".
	g.Remove(prod)
	if prod.State() != SwappedOut {
		t.Fatalf("prod state = %v", prod.State())
	}
	if cons.Rank() != 0 {
		t.Fatalf("cons rank after swap-out = %v, want 0", cons.Rank())
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
	if _, ok := g.EdgeWeight(prod, cons); ok {
		t.Fatal("edge should be gone")
	}
	// Remove is idempotent.
	g.Remove(prod)
}

func TestRemoveWaitingPanics(t *testing.T) {
	g, _ := rig(FIFO{})
	n := g.Insert(meta(geom.R(0, 0, 10, 10)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Remove(n)
}

func TestMarkCachedRequiresExecuting(t *testing.T) {
	g, _ := rig(FIFO{})
	n := g.Insert(meta(geom.R(0, 0, 10, 10)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.MarkCached(n)
}

func TestExecutingProducers(t *testing.T) {
	g, _ := rig(FIFO{})
	p1 := g.Insert(meta(geom.R(0, 0, 100, 100))) // big overlap with probe
	p2 := g.Insert(meta(geom.R(0, 0, 100, 30)))  // smaller overlap
	probe := g.Insert(meta(geom.R(0, 0, 100, 100)))
	// FIFO: p1 then p2 dequeue; both EXECUTING.
	if g.Dequeue() != p1 || g.Dequeue() != p2 {
		t.Fatal("unexpected dequeue order")
	}
	got := g.ExecutingProducers(probe)
	if len(got) != 2 || got[0] != p1 || got[1] != p2 {
		t.Fatalf("producers = %v", ids(got))
	}
	// Once p1 is cached it is no longer an executing producer.
	g.MarkCached(p1)
	got = g.ExecutingProducers(probe)
	if len(got) != 1 || got[0] != p2 {
		t.Fatalf("producers after cache = %v", ids(got))
	}
}

func ids(ns []*Node) []int64 {
	out := make([]int64, len(ns))
	for i, n := range ns {
		out[i] = n.ID
	}
	return out
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Waiting: "WAITING", Executing: "EXECUTING", Cached: "CACHED", SwappedOut: "SWAPPED_OUT",
	} {
		if s.String() != want {
			t.Errorf("State %d = %q", s, s.String())
		}
	}
	if State(99).String() == "" {
		t.Error("unknown state string empty")
	}
}

func TestByNameAndAll(t *testing.T) {
	_, app := rig(nil)
	for _, name := range []string{"fifo", "muf", "ff", "cf", "cnbf", "sjf"} {
		p, ok := ByName(name, app)
		if !ok || p.Name() == "" {
			t.Errorf("ByName(%q) = %v, %v", name, p, ok)
		}
	}
	if _, ok := ByName("nope", app); ok {
		t.Error("unknown policy accepted")
	}
	if got := AllPolicies(app); len(got) != 6 {
		t.Errorf("AllPolicies returned %d", len(got))
	}
}

// Ranks react incrementally: inserting a new overlapping query must update
// existing WAITING nodes' ranks (MUF usefulness grows).
func TestIncrementalRankOnInsert(t *testing.T) {
	g, _ := rig(MUF{})
	a := g.Insert(meta(geom.R(0, 0, 100, 100)))
	if a.Rank() != 0 {
		t.Fatalf("solo rank = %v", a.Rank())
	}
	g.Insert(meta(geom.R(0, 0, 100, 100)))
	if a.Rank() != 10000 {
		t.Fatalf("rank after overlapping insert = %v, want 10000", a.Rank())
	}
	// A third query fully covered by a: overlap(a,c)=1, so +qoutsize(a).
	g.Insert(meta(geom.R(0, 0, 50, 100)))
	if a.Rank() != 20000 {
		t.Fatalf("rank after second insert = %v, want 20000", a.Rank())
	}
}

func TestCancelWaiting(t *testing.T) {
	g, _ := rig(MUF{})
	a := g.Insert(meta(geom.R(0, 0, 100, 100)))
	b := g.Insert(meta(geom.R(0, 0, 100, 100)))
	if a.Rank() == 0 {
		t.Fatal("a should have usefulness towards b")
	}
	if !g.CancelWaiting(b) {
		t.Fatal("CancelWaiting failed")
	}
	if b.State() != SwappedOut || g.Len() != 1 || g.WaitingCount() != 1 {
		t.Fatalf("state=%v len=%d waiting=%d", b.State(), g.Len(), g.WaitingCount())
	}
	if a.Rank() != 0 {
		t.Fatalf("a's rank = %v after consumer canceled", a.Rank())
	}
	// Canceling a non-waiting node is refused.
	if g.CancelWaiting(b) {
		t.Fatal("double cancel succeeded")
	}
	got := g.Dequeue()
	if got != a {
		t.Fatalf("dequeued %d", got.ID)
	}
	if g.CancelWaiting(a) {
		t.Fatal("cancel of an executing node succeeded")
	}
	// The canceled node never comes out of the queue.
	if g.Dequeue() != nil {
		t.Fatal("canceled node was dequeued")
	}
}

func TestDOT(t *testing.T) {
	g, _ := rig(CF{Alpha: 0.2})
	a := g.Insert(meta(geom.R(0, 0, 100, 100)))
	g.Insert(meta(geom.R(50, 0, 150, 100)))
	if g.Dequeue() != a {
		t.Fatal("unexpected dequeue")
	}
	g.MarkCached(a)
	dot := g.DOT()
	for _, want := range []string{"digraph sched", "q1", "q2", "CACHED", "WAITING", "->", "MB"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Deterministic.
	if g.DOT() != dot {
		t.Fatal("DOT not deterministic")
	}
}

func BenchmarkInsertDequeue(b *testing.B) {
	g, _ := rig(CF{Alpha: 0.2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := int64(i%9) * 100
		n := g.Insert(meta(geom.R(x, 0, x+150, 150)))
		if i%4 == 3 {
			for {
				d := g.Dequeue()
				if d == nil {
					break
				}
				g.MarkCached(d)
				if g.Len() > 64 {
					g.Remove(d)
				}
			}
		}
		_ = n
	}
}

func TestPrepareInvisibleUntilEnqueue(t *testing.T) {
	g, _ := rig(FIFO{})
	a := g.Insert(meta(geom.R(0, 0, 100, 100)))
	n := g.Prepare(meta(geom.R(0, 0, 50, 50)))
	if n.ID <= a.ID {
		t.Fatalf("Prepare should allocate the next ID: %d <= %d", n.ID, a.ID)
	}
	// Prepared but unpublished: not in the graph, not dequeueable.
	if g.Len() != 1 || g.WaitingCount() != 1 {
		t.Fatalf("prepared node leaked into the graph: len=%d waiting=%d", g.Len(), g.WaitingCount())
	}
	if got := g.Dequeue(); got != a {
		t.Fatalf("dequeued %v, want the published node", got)
	}
	if got := g.Dequeue(); got != nil {
		t.Fatalf("dequeued unpublished node %d", got.ID)
	}
	n.Payload = "attached before publication"
	g.Enqueue(n)
	if got := g.Dequeue(); got != n {
		t.Fatalf("dequeued %v, want the enqueued node", got)
	}
	// Edge discovery ran at Enqueue time: a (still EXECUTING) produces for n.
	if got := g.ExecutingProducers(n); len(got) != 1 || got[0] != a {
		t.Fatalf("producers = %v, want [%d]", ids(got), a.ID)
	}
}

func TestEnqueueTwicePanics(t *testing.T) {
	g, _ := rig(FIFO{})
	n := g.Prepare(meta(geom.R(0, 0, 10, 10)))
	g.Enqueue(n)
	defer func() {
		if recover() == nil {
			t.Fatal("double Enqueue should panic")
		}
	}()
	g.Enqueue(n)
}

func TestBlockableProducers(t *testing.T) {
	g, _ := rig(FIFO{})
	p1 := g.Insert(meta(geom.R(0, 0, 100, 100)))
	p2 := g.Insert(meta(geom.R(0, 0, 100, 30)))
	probe := g.Insert(meta(geom.R(0, 0, 100, 100)))
	if g.Dequeue() != p1 || g.Dequeue() != p2 || g.Dequeue() != probe {
		t.Fatal("unexpected dequeue order")
	}
	// probe started last (largest ExecSeq): both producers are safe to block
	// on. p2 may only block on p1; p1 on nobody. This is the acyclic
	// wait-for rule the server relies on for deadlock avoidance.
	if got := g.BlockableProducers(probe); len(got) != 2 || got[0] != p1 || got[1] != p2 {
		t.Fatalf("blockable(probe) = %v", ids(got))
	}
	if got := g.BlockableProducers(p2); len(got) != 1 || got[0] != p1 {
		t.Fatalf("blockable(p2) = %v", ids(got))
	}
	if got := g.BlockableProducers(p1); len(got) != 0 {
		t.Fatalf("blockable(p1) = %v", ids(got))
	}
}

func TestBlockableProducersRequiresExecuting(t *testing.T) {
	g, _ := rig(FIFO{})
	n := g.Insert(meta(geom.R(0, 0, 10, 10)))
	defer func() {
		if recover() == nil {
			t.Fatal("BlockableProducers on a WAITING node should panic")
		}
	}()
	g.BlockableProducers(n)
}

// TestNamesResolve pins the advertised strategy set to ByName: every name
// must construct, and its Policy.Name must match case-insensitively.
func TestNamesResolve(t *testing.T) {
	_, app := rig(nil)
	names := Names()
	if len(names) == 0 {
		t.Fatal("Names() is empty")
	}
	for _, name := range names {
		p, ok := ByName(name, app)
		if !ok {
			t.Errorf("advertised strategy %q does not resolve via ByName", name)
			continue
		}
		// Display names may carry parameters, e.g. "CF(α=0.2)".
		if !strings.HasPrefix(strings.ToLower(p.Name()), name) {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
}

// TestRankSumOrderFixed rebuilds one consumer's producers many times and
// requires bit-identical CF ranks: the producers' weights differ by orders
// of magnitude and are not integers, so summing them in a different order
// rounds differently.
func TestRankSumOrderFixed(t *testing.T) {
	build := func() float64 {
		g, _ := rig(CF{Alpha: 0.2})
		var prods []*Node
		for s := int64(3); s < 990; s = s*5/4 + 1 {
			prods = append(prods, g.Insert(meta(geom.R(0, 0, s, s))))
		}
		for range prods {
			g.Dequeue()
		}
		for i, p := range prods {
			if i%2 == 0 {
				g.MarkCached(p)
			}
		}
		return g.Insert(meta(geom.R(0, 0, 997, 991))).Rank()
	}
	want := build()
	if want <= 0 {
		t.Fatalf("consumer rank %v, want > 0", want)
	}
	for i := 0; i < 100; i++ {
		if got := build(); got != want {
			t.Fatalf("rebuild %d: rank %v, first build %v", i, got, want)
		}
	}
}

// TestEdgesStayMirrored drives random inserts, dequeues, caches, removals
// and cancels, many of them over identical windows (which make the overlap
// index report a node twice), and checks after every step that each edge's
// mirror index is right and no neighbour appears twice in one list.
func TestEdgesStayMirrored(t *testing.T) {
	g, _ := rig(CNBF{})
	rng := rand.New(rand.NewSource(3))
	var live []*Node
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(5); {
		case op < 2 || len(live) == 0:
			x := rng.Int63n(3) * 100
			live = append(live, g.Insert(meta(geom.R(x, 0, x+150, 150))))
		case op == 2:
			if d := g.Dequeue(); d != nil {
				g.MarkCached(d)
			}
		case op == 3:
			i := rng.Intn(len(live))
			if n := live[i]; n.State() != Waiting {
				g.Remove(n)
				live = append(live[:i], live[i+1:]...)
			}
		default:
			i := rng.Intn(len(live))
			if g.CancelWaiting(live[i]) {
				live = append(live[:i], live[i+1:]...)
			}
		}
		for _, n := range g.nodes {
			seen := map[*Node]bool{}
			for i, e := range n.out {
				if m := e.k.in[e.twin]; m.k != n || m.w != e.w || m.twin != i {
					t.Fatalf("step %d: out edge %d->%d mirrored by %+v", step, n.ID, e.k.ID, m)
				}
				if seen[e.k] {
					t.Fatalf("step %d: node %d has two out-edges to %d", step, n.ID, e.k.ID)
				}
				seen[e.k] = true
			}
			clear(seen)
			for i, e := range n.in {
				if m := e.k.out[e.twin]; m.k != n || m.w != e.w || m.twin != i {
					t.Fatalf("step %d: in edge %d->%d mirrored by %+v", step, e.k.ID, n.ID, m)
				}
				if seen[e.k] {
					t.Fatalf("step %d: node %d has two in-edges from %d", step, n.ID, e.k.ID)
				}
				seen[e.k] = true
			}
		}
	}
}
