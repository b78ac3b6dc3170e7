package mqsched

import (
	"bytes"
	"strings"
	"testing"

	"mqsched/internal/dataset"
	"mqsched/internal/vm"
	"mqsched/internal/vol"
)

func TestSimulatedFacade(t *testing.T) {
	table := NewSlideTable(Slide{Name: "s1", Width: 4096, Height: 4096})
	sys, err := New(Config{Mode: Simulated, Policy: "cnbf", Threads: 2}, table)
	if err != nil {
		t.Fatal(err)
	}
	var first, second *Result
	err = sys.RunWith(func(ctx Ctx) {
		q := NewVMQuery("s1", R(0, 0, 1024, 1024), 4, Subsample)
		tk, err := sys.Submit(q)
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		first = tk.Wait(ctx)
		tk2, _ := sys.Submit(q)
		second = tk2.Wait(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	if first == nil || second == nil {
		t.Fatal("missing results")
	}
	if second.ReusedFrac != 1 {
		t.Fatalf("second query reuse = %v", second.ReusedFrac)
	}
	st := sys.Stats()
	if st.Server.Completed != 2 || st.Disk.Reads == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRealFacadeProducesPixels(t *testing.T) {
	table := NewSlideTable(Slide{Name: "s1", Width: 1024, Height: 1024})
	sys, err := New(Config{Mode: Real, Policy: "fifo", Threads: 2, TimeScale: 0.0001}, table)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	err = sys.RunWith(func(ctx Ctx) {
		q := NewVMQuery("s1", R(0, 0, 512, 512), 2, Average)
		tk, _ := sys.Submit(q)
		res = tk.Wait(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blob.Data == nil {
		t.Fatal("real mode should produce pixel data")
	}
	want := vm.RenderOracle(res.Meta.(VMQuery))
	if !bytes.Equal(res.Blob.Data, want) {
		t.Fatal("output differs from pixel oracle")
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	table := NewSlideTable(Slide{Name: "s1", Width: 512, Height: 512})
	if _, err := New(Config{Policy: "wizard"}, table); err == nil {
		t.Fatal("expected error")
	}
}

func TestDisabledCaching(t *testing.T) {
	table := NewSlideTable(Slide{Name: "s1", Width: 2048, Height: 2048})
	sys, err := New(Config{Mode: Simulated, Policy: "sjf", DSBudget: -1}, table)
	if err != nil {
		t.Fatal(err)
	}
	var second *Result
	err = sys.RunWith(func(ctx Ctx) {
		q := NewVMQuery("s1", R(0, 0, 512, 512), 1, Subsample)
		tk, _ := sys.Submit(q)
		tk.Wait(ctx)
		tk2, _ := sys.Submit(q)
		second = tk2.Wait(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.ReusedFrac != 0 {
		t.Fatalf("reuse %v with caching disabled", second.ReusedFrac)
	}
}

func TestTraceFacade(t *testing.T) {
	table := NewSlideTable(Slide{Name: "s1", Width: 1024, Height: 1024})
	sys, err := New(Config{Mode: Simulated, Policy: "fifo", Trace: true}, table)
	if err != nil {
		t.Fatal(err)
	}
	err = sys.RunWith(func(ctx Ctx) {
		tk, _ := sys.Submit(NewVMQuery("s1", R(0, 0, 512, 512), 2, Subsample))
		tk.Wait(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Trace() == nil || sys.Trace().Len() == 0 {
		t.Fatal("trace recorder empty")
	}
	if g := sys.Trace().Gantt(60); g == "" {
		t.Fatal("empty gantt")
	}
	// Untraced systems return nil.
	sys2, _ := New(Config{Mode: Simulated}, NewSlideTable(Slide{Name: "s1", Width: 512, Height: 512}))
	if sys2.Trace() != nil {
		t.Fatal("Trace should be nil when disabled")
	}
}

func TestNewWithGeneratorVolumeApp(t *testing.T) {
	app := vol.New()
	dims := vol.Dims{Width: 512, Height: 512, Depth: 4}
	layout := app.Add("v", dims)
	table := dataset.NewTable(layout)
	app.Finish(table)

	sys, err := NewWithGenerator(Config{
		Mode: Real, Policy: "muf", Threads: 2, App: app, TimeScale: 0.0001,
	}, table, app.Generator())
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	err = sys.RunWith(func(ctx Ctx) {
		q := vol.NewMeta("v", dims, R(0, 0, 512, 512), 0, 4, 2, vol.MIP)
		tk, _ := sys.Submit(q)
		res = tk.Wait(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := vol.RenderOracle(res.Meta.(vol.Meta), dims)
	if !bytes.Equal(res.Blob.Data, want) {
		t.Fatal("volume result differs from oracle through the facade")
	}
}

func TestAlignRectFacade(t *testing.T) {
	got := AlignRect(R(3, 3, 61, 61), 8, R(0, 0, 1024, 1024))
	if got.X0%8 != 0 || got.X1%8 != 0 {
		t.Fatalf("AlignRect = %v", got)
	}
}

func TestBuildInfoGauge(t *testing.T) {
	bi := BuildInfo()
	for _, k := range []string{"version", "go", "strategies"} {
		if bi[k] == "" {
			t.Errorf("BuildInfo()[%q] empty", k)
		}
	}
	if !strings.Contains(bi["strategies"], "cnbf") {
		t.Errorf("strategies = %q, want cnbf present", bi["strategies"])
	}

	table := NewSlideTable(Slide{Name: "s1", Width: 4096, Height: 4096})
	sys, err := New(Config{Mode: Simulated, Policy: "fifo", Threads: 1, EnableMetrics: true}, table)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "mqsched_build_info{") {
		t.Fatalf("mqsched_build_info missing from exposition:\n%s", out)
	}
	for _, frag := range []string{`go="` + bi["go"] + `"`, `strategies="` + bi["strategies"] + `"`} {
		if !strings.Contains(out, frag) {
			t.Errorf("exposition missing label %s", frag)
		}
	}
}

func TestUnknownDSPolicyRejected(t *testing.T) {
	table := NewSlideTable(Slide{Name: "s1", Width: 512, Height: 512})
	if _, err := New(Config{Policy: "cnbf", DSPolicy: "mru"}, table); err == nil {
		t.Fatal("expected error for unknown cache policy")
	}
	// With the data store disabled the policy string is irrelevant.
	if _, err := New(Config{Policy: "cnbf", DSPolicy: "mru", DSBudget: -1}, table); err != nil {
		t.Fatalf("DSPolicy should be ignored without a data store: %v", err)
	}
	// The cost policy assembles.
	if _, err := New(Config{Mode: Simulated, Policy: "cnbf", DSPolicy: "cost"}, table); err != nil {
		t.Fatal(err)
	}
}

// Values outside a knob's set are rejected up front instead of hanging (no
// query threads) or panicking (a negative farm size).
func TestNewRejectsOutOfRangeValues(t *testing.T) {
	table := NewSlideTable(Slide{Name: "s1", Width: 512, Height: 512})
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"threads", Config{Threads: -1}},
		{"threads real", Config{Mode: Real, Threads: -1}},
		{"disks", Config{Disks: -1}},
		{"disks real", Config{Mode: Real, Disks: -2}},
		{"cpus", Config{Mode: Simulated, CPUs: -4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("New panicked: %v", r)
					}
				}()
				_, err = New(tc.cfg, table)
			}()
			if err == nil {
				t.Fatal("New accepted an out-of-range value")
			}
		})
	}
}

func TestParseSlides(t *testing.T) {
	got, err := ParseSlides("a:100x200, b:300x400")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (Slide{"a", 100, 200}) || got[1] != (Slide{"b", 300, 400}) {
		t.Fatalf("ParseSlides = %+v", got)
	}
	for _, bad := range []string{"a", "a:100", "a:xx200", "a:100xzz", "a:100x200,b", "s:0x100", "s:100x-1"} {
		if _, err := ParseSlides(bad); err == nil {
			t.Errorf("ParseSlides(%q) should fail", bad)
		}
	}
}
