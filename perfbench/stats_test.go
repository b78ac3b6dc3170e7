package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{
		{200, 0.95, 190},
		{200, 0.5, 100},
		{21, 0.5, 11},
	} {
		got, err := percentile(seq(c.n), c.q)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..%d = %v, %v; want %v", c.q*100, c.n, got, err, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n int
		q float64
	}{
		{199, 0.95}, // 9 samples beyond
		{19, 0.5},
		{0, 0.5},
	} {
		if _, err := percentile(seq(c.n), c.q); err == nil {
			t.Errorf("p%g of %d samples: no error", c.q*100, c.n)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}

// p95Curve is an M/M/1-like latency curve: 20 ms at no load, unbounded at
// capRate. It meets a 250 ms SLO up to 0.92·capRate.
func p95Curve(rate, capRate float64) float64 {
	if rate >= capRate {
		return math.Inf(1)
	}
	return 20 / (1 - rate/capRate)
}

func TestSearchCapacityOnLatencyCurve(t *testing.T) {
	const capRate = 100
	want := 0.92 * capRate
	var probed []float64
	got := searchCapacity(30, 60, 6, func(rate float64) bool {
		probed = append(probed, rate)
		return probeOutcome{rate: rate, p95MS: p95Curve(rate, capRate)}.meets(sloMS)
	})
	// 60 passes, 120 fails, then four bisections of [60, 120] leave a
	// bracket 3.75 wide around the crossing.
	if math.Abs(got-want) > 3.75/2 {
		t.Errorf("capacity %v, want within 1.9 of %v (probed %v)", got, want, probed)
	}
	if len(probed) != 6 || probed[0] != 60 || probed[1] != 120 {
		t.Errorf("probed %v, want 6 rates starting 60, 120", probed)
	}
}

func TestSearchCapacityGrowingBacklog(t *testing.T) {
	// Latency looks fine at every rate, but past 70 qps the queue grows: a
	// window that ends before the backlog shows in its latencies must still
	// fail.
	got := searchCapacity(30, 60, 8, func(rate float64) bool {
		return probeOutcome{rate: rate, p95MS: 50, backlog: rate > 70}.meets(sloMS)
	})
	if got > 70 || got < 69 {
		t.Errorf("capacity %v, want just under 70", got)
	}
}

func TestSearchCapacityFailuresAndFirstProbeFailing(t *testing.T) {
	// A failed query fails the probe even when latency is within the SLO.
	if (probeOutcome{p95MS: 10, failures: 1}).meets(sloMS) {
		t.Error("probe with a failure meets the SLO")
	}
	// With no passing rate known and the first probe failing, the search
	// bisects down towards 0.
	got := searchCapacity(0, 15, 6, func(rate float64) bool { return rate <= 10 })
	if got > 10.5 || got < 9 {
		t.Errorf("capacity %v, want about 10", got)
	}
	// No failing rate found: report the highest passing one.
	if got := searchCapacity(30, 60, 3, func(float64) bool { return true }); got != 240 {
		t.Errorf("unbounded capacity %v, want 240", got)
	}
}

func TestFitCapacity(t *testing.T) {
	// log(p95) rises linearly with rate and crosses 250 ms at 200 qps.
	curve := func(rate float64) float64 { return sloMS * math.Exp(0.02*(rate-200)) }
	var probes []probeOutcome
	for _, r := range []float64{120, 240, 180, 210, 195} {
		probes = append(probes, probeOutcome{rate: r, p95MS: curve(r)})
	}
	if got := fitCapacity(probes, sloMS, 0); math.Abs(got-200) > 1e-6 {
		t.Errorf("fit %v, want 200", got)
	}
	// A probe that built a backlog caps the estimate.
	capped := append(probes, probeOutcome{rate: 190, backlog: true})
	if got := fitCapacity(capped, sloMS, 0); got != 190 {
		t.Errorf("fit with a backlog at 190 = %v, want 190", got)
	}
	// Too few probes near the limit: fall back to the bisection result.
	far := []probeOutcome{{rate: 60, p95MS: 5}, {rate: 120, p95MS: 100}}
	if got := fitCapacity(far, sloMS, 77); got != 77 {
		t.Errorf("fit of one usable probe = %v, want the fallback 77", got)
	}
	// A falling line is noise, not a limit.
	falling := []probeOutcome{{rate: 100, p95MS: 300}, {rate: 120, p95MS: 100}}
	if got := fitCapacity(falling, sloMS, 77); got != 77 {
		t.Errorf("fit of a falling line = %v, want the fallback 77", got)
	}
}

func TestRatioZeroDenominator(t *testing.T) {
	if r := ratio(5, 0); r != 0 {
		t.Errorf("ratio(5, 0) = %v", r)
	}
	if r := ratio(1, 4); r != 0.25 {
		t.Errorf("ratio(1, 4) = %v", r)
	}
}

func TestLayerMetricsWithNoWork(t *testing.T) {
	m, err := layerMetrics(layerSpan{counts: counts{}, sm: &seams{}})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range m {
		if v != 0 || math.IsNaN(v) {
			t.Errorf("%s = %v with no work, want 0", k, v)
		}
	}
	for k := range perLayer {
		if _, ok := m[k]; !ok && k[:6] != "trace." {
			t.Errorf("per-layer metric %s missing", k)
		}
	}
}

func TestLayerMetricsRefusesThinPercentile(t *testing.T) {
	if _, err := layerMetrics(layerSpan{counts: counts{}, sm: &seams{}, wait: seq(50)}); err == nil {
		t.Error("p95 of 50 samples accepted")
	}
}

func TestLayerMetricsRatios(t *testing.T) {
	sm := &seams{}
	sm.gen.Store(int64(time.Second))
	m, err := layerMetrics(layerSpan{
		wall: time.Second,
		counts: counts{
			"server.completed": 10, "server.full_hits": 4,
			"pagespace.hits": 1, "pagespace.misses": 2, "pagespace.coalesced": 1,
			"disk.reads": 30, "disk.service_ns": int64(100 * time.Second),
		},
		sm:      sm,
		proc:    procSample{cpu: 4 * time.Second},
		routed:  []int64{30, 10},
		spilled: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{
		"server.full_hit_frac":    0.4,
		"pagespace.hit_frac":      0.25,
		"pagespace.coalesce_frac": 0.25,
		"vm.gen_pages_per_query":  3,
		"vm.gen_ms_per_query":     100,
		"vm.gen_cpu_frac":         0.25,
		"disk.busy_frac":          100 * timeScale / numDisks,
		"cluster.spill_frac":      0.1,
		"cluster.imbalance":       1.5,
	} {
		if math.Abs(m[k]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, m[k], want)
		}
	}
}

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		spans []interval
		want  time.Duration
	}{
		{nil, 0},
		{[]interval{{0, 5}}, 5},
		{[]interval{{4, 6}, {0, 5}}, 6},         // overlapping, out of order
		{[]interval{{0, 10}, {2, 3}}, 10},       // nested
		{[]interval{{0, 2}, {5, 7}, {6, 9}}, 6}, // gap
	} {
		if got := unionLen(c.spans); got != c.want {
			t.Errorf("unionLen(%v) = %v, want %v", c.spans, got, c.want)
		}
	}
}
