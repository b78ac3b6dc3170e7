package load

import (
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"mqsched"
	"mqsched/internal/dataset"
	"mqsched/internal/netproto"
	"mqsched/internal/vm"
)

// testTable4k mirrors the live test server's slide table.
func testTable4k() *dataset.Table {
	return dataset.NewTable(
		vm.NewSlide("slide1", 4096, 4096),
		vm.NewSlide("slide2", 4096, 4096),
		vm.NewSlide("slide3", 4096, 4096),
	)
}

// liveServer starts a real-mode system serving netproto on a loopback port.
func liveServer(t *testing.T) string {
	t.Helper()
	sys, err := mqsched.New(mqsched.Config{
		Mode:          mqsched.Real,
		Policy:        "cnbf",
		Threads:       4,
		TimeScale:     0.0005,
		EnableMetrics: true,
	}, mqsched.NewSlideTable(
		mqsched.Slide{Name: "slide1", Width: 4096, Height: 4096},
		mqsched.Slide{Name: "slide2", Width: 4096, Height: 4096},
		mqsched.Slide{Name: "slide3", Width: 4096, Height: 4096},
	))
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go netproto.Serve(l, sys, func(string, ...any) {})
	return l.Addr().String()
}

// TestRunnerOpenLoop drives a short generated stream against a live server
// and checks the phase accounting: everything sent, measured subset
// excludes warmup, latency sketch populated, records written.
func TestRunnerOpenLoop(t *testing.T) {
	addr := liveServer(t)
	table := testTable4k()
	cfg := testGenConfig()
	cfg.OutputSide = 64
	const rate = 200.0
	items := Build(cfg, table, ArrivalConfig{Process: Poisson, Rate: rate, Seed: 1}, 120)

	var records bytes.Buffer
	warmup := 100 * time.Millisecond
	res, err := Run(RunnerConfig{
		Addr: addr, Workers: 8, Warmup: warmup, Record: &records,
	}, items, rate)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != len(items) || res.Dropped != 0 {
		t.Fatalf("sent %d dropped %d of %d", res.Sent, res.Dropped, len(items))
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	if res.Completed != len(items) {
		t.Fatalf("completed %d of %d", res.Completed, len(items))
	}
	if res.Measured == 0 || res.Measured >= res.Completed {
		t.Fatalf("measured %d of %d: warmup exclusion broken", res.Measured, res.Completed)
	}
	if res.Latency.Count() != res.Measured {
		t.Fatalf("sketch holds %d samples, measured %d", res.Latency.Count(), res.Measured)
	}
	if p50, p99 := res.Latency.Quantile(50), res.Latency.Quantile(99); !(p50 > 0 && p99 >= p50) {
		t.Fatalf("latency quantiles p50=%v p99=%v", p50, p99)
	}
	if res.AchievedQPS <= 0 {
		t.Fatalf("achieved qps %v", res.AchievedQPS)
	}

	// One JSONL record per completion, warmup flagged, offered stamped.
	lines := strings.Split(strings.TrimSpace(records.String()), "\n")
	if len(lines) != res.Completed {
		t.Fatalf("%d records for %d completions", len(lines), res.Completed)
	}
	warm := 0
	for _, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("bad record %q: %v", ln, err)
		}
		if rec["offered_qps"].(float64) != rate {
			t.Fatalf("record missing offered rate: %q", ln)
		}
		if w, _ := rec["warmup"].(bool); w {
			warm++
		}
	}
	if warm != res.Completed-res.Measured {
		t.Fatalf("%d warmup records, want %d", warm, res.Completed-res.Measured)
	}
}

// TestRunnerUnreachableServer fails fast with a clear error.
func TestRunnerUnreachableServer(t *testing.T) {
	items := Build(testGenConfig(), testTable4k(), ArrivalConfig{Process: Constant, Rate: 10}, 3)
	_, err := Run(RunnerConfig{Addr: "127.0.0.1:1", DialTimeout: 200 * time.Millisecond}, items, 10)
	if err == nil || !strings.Contains(err.Error(), "probing") {
		t.Fatalf("want probe error, got %v", err)
	}
}

func TestRunnerConfigValidate(t *testing.T) {
	bad := []RunnerConfig{
		{},
		{Addr: "x", Workers: -1},
		{Addr: "x", Warmup: -time.Second},
		{Addr: "x", RelErr: 2},
		{Addr: "x", QueueCap: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should not validate", cfg)
		}
	}
	if err := (RunnerConfig{Addr: "localhost:9123"}).Validate(); err != nil {
		t.Errorf("defaulted config should validate: %v", err)
	}
}

// TestRunnerProbeServerError: a reachable server that answers the health
// probe with an application-level error must fail the phase before any
// queries are sent — previously only transport errors were checked.
func TestRunnerProbeServerError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				c := netproto.NewConn(conn)
				defer conn.Close()
				for {
					if _, err := c.ReadRequest(); err != nil {
						return
					}
					if err := c.WriteResponse(&netproto.Response{Err: "server on fire"}); err != nil {
						return
					}
				}
			}()
		}
	}()
	items := Build(testGenConfig(), testTable4k(), ArrivalConfig{Process: Constant, Rate: 10}, 3)
	_, err = Run(RunnerConfig{Addr: l.Addr().String()}, items, 10)
	if err == nil || !strings.Contains(err.Error(), "probing") || !strings.Contains(err.Error(), "server on fire") {
		t.Fatalf("want probe failure carrying the server error, got %v", err)
	}
}

// TestMeasuredWindowClamped: a phase shorter than its warmup reports a zero
// measured window, never a negative one.
func TestMeasuredWindowClamped(t *testing.T) {
	for _, tc := range []struct {
		elapsed, warmup, want time.Duration
	}{
		{10 * time.Second, 2 * time.Second, 8 * time.Second},
		{time.Second, 2 * time.Second, 0},
		{2 * time.Second, 2 * time.Second, 0},
		{time.Second, 0, time.Second},
	} {
		if got := measuredWindow(tc.elapsed, tc.warmup); got != tc.want {
			t.Errorf("measuredWindow(%v, %v) = %v, want %v", tc.elapsed, tc.warmup, got, tc.want)
		}
	}
}

func TestCounterValueAndReusedFracDelta(t *testing.T) {
	before := `# HELP mqsched_server_reused_output_bytes_total bytes
# TYPE mqsched_server_reused_output_bytes_total counter
mqsched_server_reused_output_bytes_total 100
mqsched_server_computed_output_bytes_total 900
mqsched_server_reused_output_bytes_total_longer_name 5
`
	after := `mqsched_server_reused_output_bytes_total 400
mqsched_server_computed_output_bytes_total 1100
`
	if v := counterValue(before, "mqsched_server_reused_output_bytes_total"); v != 100 {
		t.Fatalf("counterValue = %v, want 100 (prefix-sharing metric must not match)", v)
	}
	if v := counterValue(before, "absent_metric"); v != 0 {
		t.Fatalf("absent metric = %v", v)
	}
	// Labelled samples sum.
	labelled := `m{a="x"} 1
m{a="y"} 2
`
	if v := counterValue(labelled, "m"); v != 3 {
		t.Fatalf("labelled sum = %v, want 3", v)
	}
	// Delta: reused 300 of 500 new output bytes.
	if got := reusedFracDelta(before, after); got != 0.6 {
		t.Fatalf("reusedFracDelta = %v, want 0.6", got)
	}
	// No new bytes: zero, not NaN.
	if got := reusedFracDelta(before, before); got != 0 {
		t.Fatalf("no-delta frac = %v", got)
	}
}

// TestRunnerMultiAddr spreads one stream across two live servers: queries
// round-robin, accounting still adds up, and the reuse scrape aggregates
// both servers' counters.
func TestRunnerMultiAddr(t *testing.T) {
	addrA, addrB := liveServer(t), liveServer(t)
	table := testTable4k()
	cfg := testGenConfig()
	cfg.OutputSide = 64
	const rate = 200.0
	items := Build(cfg, table, ArrivalConfig{Process: Poisson, Rate: rate, Seed: 2}, 80)

	res, err := Run(RunnerConfig{
		Addrs: []string{addrA, addrB}, Workers: 8, Warmup: 50 * time.Millisecond,
	}, items, rate)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Completed != len(items) {
		t.Fatalf("completed %d errors %d of %d", res.Completed, res.Errors, len(items))
	}
	// Both servers actually served: each holds a nonzero submitted counter.
	for _, addr := range []string{addrA, addrB} {
		c := netproto.NewClient(addr, time.Second)
		resp, err := c.Do(&netproto.Request{Verb: netproto.VerbMetrics})
		c.Close()
		if err != nil || resp.Err != "" {
			t.Fatalf("scraping %s: %v %q", addr, err, resp.Err)
		}
		if counterValue(resp.Metrics, "mqsched_server_submitted_total") == 0 {
			t.Fatalf("server %s saw no queries: round-robin broken", addr)
		}
	}
}

// TestRunnerAddrsValidate pins the multi-address config contract.
func TestRunnerAddrsValidate(t *testing.T) {
	if err := (RunnerConfig{Addrs: []string{"a:1", "b:2"}}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (RunnerConfig{Addr: "a:1", Addrs: []string{"b:2"}}).Validate(); err == nil {
		t.Fatal("Addr and Addrs together should not validate")
	}
	if err := (RunnerConfig{Addrs: []string{"a:1", " "}}).Validate(); err == nil {
		t.Fatal("blank address in Addrs should not validate")
	}
}

// TestRunnerLatencyFromArrival: with one worker and a server that takes
// service to answer, the third of three simultaneous arrivals waits for the
// first two client-side, and its latency counts that wait.
func TestRunnerLatencyFromArrival(t *testing.T) {
	const service = 40 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				c := netproto.NewConn(conn)
				defer conn.Close()
				for {
					req, err := c.ReadRequest()
					if err != nil {
						return
					}
					if req.Verb != netproto.VerbMetrics {
						time.Sleep(service)
					}
					if err := c.WriteResponse(&netproto.Response{}); err != nil {
						return
					}
				}
			}()
		}
	}()
	items := Build(testGenConfig(), testTable4k(), ArrivalConfig{Process: Constant, Rate: 10}, 3)
	for i := range items {
		items[i].At = 0
	}
	var records bytes.Buffer
	res, err := Run(RunnerConfig{Addr: l.Addr().String(), Workers: 1, Record: &records}, items, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3 {
		t.Fatalf("completed %d of 3", res.Completed)
	}
	var last float64
	for _, ln := range strings.Split(strings.TrimSpace(records.String()), "\n") {
		var rec struct {
			Seq   int     `json:"seq"`
			LatMS float64 `json:"lat_ms"`
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("bad record %q: %v", ln, err)
		}
		if rec.Seq == 2 {
			last = rec.LatMS
		}
	}
	if want := 2 * float64(service.Milliseconds()); last < want {
		t.Fatalf("third arrival's latency %.1f ms, want at least %.0f ms (two service times queued)", last, want)
	}
}
