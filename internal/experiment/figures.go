package experiment

import (
	"fmt"
	"slices"
	"strings"

	"mqsched/internal/load"
	"mqsched/internal/stats"
	"mqsched/internal/trace"
	"mqsched/internal/traceviz"
	"mqsched/internal/vm"
)

// Figures: one sweep per paper artifact. Every function takes a base Config
// whose zero fields take the paper's defaults; sweeps override the swept
// field per run. All runs are deterministic in base.Seed.

// opLabel names the VM implementation the way the paper's captions do.
func opLabel(op vm.Op) string {
	if op == vm.Average {
		return "pixel averaging"
	}
	return "subsampling"
}

// CachingEffect reproduces the §5 caching-on/off comparison (experiment E1):
// "we observed the overall system performance improved by as much as 35% and
// 70% for FIFO and 40% and 70% for SJF, for subsampling and averaging
// implementations of VM, respectively".
func CachingEffect(base Config) (Table, error) {
	t := Table{
		Title:  "E1: effect of intermediate-result caching on FIFO and SJF (§5)",
		Header: []string{"app", "policy", "response off(s)", "response on(s)", "improvement", "batch off(s)", "batch on(s)", "improvement"},
		Notes: []string{
			"paper: caching improves FIFO and SJF substantially (tens of percent), more for averaging than subsampling",
		},
	}
	for _, op := range []vm.Op{vm.Subsample, vm.Average} {
		for _, pol := range []string{"fifo", "sjf"} {
			cfg := base
			cfg.Op = op
			cfg.Policy = pol

			off := cfg
			off.DSBudget = -1
			on := cfg

			offM, err := Run(off)
			if err != nil {
				return t, err
			}
			onM, err := Run(on)
			if err != nil {
				return t, err
			}
			offB, onB := off, on
			offB.Batch, onB.Batch = true, true
			offBM, err := Run(offB)
			if err != nil {
				return t, err
			}
			onBM, err := Run(onB)
			if err != nil {
				return t, err
			}
			t.AddRow(opLabel(op), policyLabel(pol),
				offM.TrimmedResponse, onM.TrimmedResponse, pct(offM.TrimmedResponse, onM.TrimmedResponse),
				offBM.Makespan, onBM.Makespan, pct(offBM.Makespan, onBM.Makespan))
		}
	}
	return t, nil
}

func pct(before, after float64) string {
	if before == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.0f%%", (before-after)/before*100)
}

func policyLabel(p string) string {
	switch p {
	case "fifo":
		return "FIFO"
	case "muf":
		return "MUF"
	case "ff":
		return "FF"
	case "cf":
		return "CF"
	case "cnbf":
		return "CNBF"
	case "sjf":
		return "SJF"
	case "combined":
		return "Combined"
	case "autotune":
		return "AutoTune"
	case "ra":
		return "ResourceAware"
	}
	return p
}

// ResponseVsThreads reproduces Figure 4: the 95%-trimmed mean query response
// time as the maximum number of concurrent queries is varied, for one VM
// implementation (64 MB DS, interactive clients).
func ResponseVsThreads(base Config, threads []int) (Table, error) {
	if len(threads) == 0 {
		threads = []int{1, 2, 4, 8, 16, 24}
	}
	t := Table{
		Title:  fmt.Sprintf("Figure 4 (%s): 95%%-trimmed query response time (s) vs number of threads", opLabel(base.Op)),
		Header: append([]string{"policy"}, intHeaders(threads, "T=%d")...),
		Notes: []string{
			"paper: FIFO discernibly worst; MUF/FF/CF/CNBF slightly better than SJF;",
			"performance degrades past an optimal thread count (4 in the paper) as the I/O subsystem saturates;",
			"the averaging implementation scales further than the subsampling one",
		},
	}
	for _, pol := range Policies {
		row := []any{policyLabel(pol)}
		for _, th := range threads {
			cfg := base
			cfg.Policy = pol
			cfg.Threads = th
			m, err := Run(cfg)
			if err != nil {
				return t, err
			}
			row = append(row, m.TrimmedResponse)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// OverlapVsMemory reproduces Figure 5: the average overlap achieved as the
// memory allocated to the data store is varied (up to 4 concurrent queries).
func OverlapVsMemory(base Config, mems []int64) (Table, error) {
	if len(mems) == 0 {
		mems = []int64{32 * MB, 64 * MB, 96 * MB, 128 * MB}
	}
	t := Table{
		Title:  fmt.Sprintf("Figure 5 (%s): average overlap vs DS memory", opLabel(base.Op)),
		Header: append([]string{"policy"}, memHeaders(mems)...),
		Notes: []string{
			"paper: overlap increases with DS size; for small caches (32MB) CF and CNBF achieve the highest overlap",
		},
	}
	return sweepMemory(t, base, mems, func(m Metrics) float64 { return m.AvgOverlap })
}

// ResponseVsMemory reproduces Figure 6: the 95%-trimmed mean response time
// as DS memory is varied (4 threads, interactive clients).
func ResponseVsMemory(base Config, mems []int64) (Table, error) {
	if len(mems) == 0 {
		mems = []int64{32 * MB, 64 * MB, 96 * MB, 128 * MB}
	}
	t := Table{
		Title:  fmt.Sprintf("Figure 6 (%s): 95%%-trimmed query response time (s) vs DS memory", opLabel(base.Op)),
		Header: append([]string{"policy"}, memHeaders(mems)...),
		Notes: []string{
			"paper: more DS memory lowers response time; higher overlap (CF/CNBF) does not always translate",
			"into lower response time because those queries wait longer in the queue",
		},
	}
	return sweepMemory(t, base, mems, func(m Metrics) float64 { return m.TrimmedResponse })
}

// BatchVsMemory reproduces Figure 7: the total execution time of a single
// batch of 256 queries as DS memory is varied (up to 4 concurrent queries).
func BatchVsMemory(base Config, mems []int64) (Table, error) {
	if len(mems) == 0 {
		mems = []int64{32 * MB, 64 * MB, 96 * MB, 128 * MB}
	}
	base.Batch = true
	t := Table{
		Title:  fmt.Sprintf("Figure 7 (%s): total execution time (s) of a single batch vs DS memory", opLabel(base.Op)),
		Header: append([]string{"policy"}, memHeaders(mems)...),
		Notes: []string{
			"paper: CF and CNBF beat the other strategies, especially when resources are scarce (small DS)",
		},
	}
	return sweepMemory(t, base, mems, func(m Metrics) float64 { return m.Makespan })
}

func sweepMemory(t Table, base Config, mems []int64, metric func(Metrics) float64) (Table, error) {
	for _, pol := range Policies {
		row := []any{policyLabel(pol)}
		for _, mem := range mems {
			cfg := base
			cfg.Policy = pol
			cfg.DSBudget = mem
			m, err := Run(cfg)
			if err != nil {
				return t, err
			}
			row = append(row, metric(m))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// CFAlphaAblation (A1) sweeps the CF policy's α, which the paper describes
// as hand-tuned and fixes at 0.2.
func CFAlphaAblation(base Config, alphas []float64) (Table, error) {
	if len(alphas) == 0 {
		alphas = []float64{0.01, 0.2, 0.5, 0.8}
	}
	t := Table{
		Title:  fmt.Sprintf("A1 (%s): CF alpha sweep", opLabel(base.Op)),
		Header: []string{"alpha", "trimmed response(s)", "avg overlap", "batch makespan(s)"},
		Notes:  []string{"paper fixes alpha=0.2; alpha weights dependencies on still-executing producers"},
	}
	for _, a := range alphas {
		cfg := base
		cfg.Policy = "cf"
		cfg.CFAlpha = a
		m, err := Run(cfg)
		if err != nil {
			return t, err
		}
		bcfg := cfg
		bcfg.Batch = true
		bm, err := Run(bcfg)
		if err != nil {
			return t, err
		}
		t.AddRow(fmt.Sprintf("%.2f", a), m.TrimmedResponse, m.AvgOverlap, bm.Makespan)
	}
	return t, nil
}

// PageSpaceAblation (A2) toggles the page space manager's in-flight
// duplicate elimination.
func PageSpaceAblation(base Config) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("A2 (%s): page space duplicate elimination", opLabel(base.Op)),
		Header: []string{"dedup", "policy", "trimmed response(s)", "disk reads", "bytes read (GB)"},
		Notes:  []string{"PS dedup merges concurrent requests for the same chunk (paper §2)"},
	}
	for _, pol := range []string{"fifo", "cf"} {
		for _, dedup := range []bool{true, false} {
			cfg := base
			cfg.Policy = pol
			cfg.DisablePSDedup = !dedup
			m, err := Run(cfg)
			if err != nil {
				return t, err
			}
			t.AddRow(onOff(dedup), policyLabel(pol), m.TrimmedResponse, m.Disk.Reads, float64(m.Disk.BytesRead)/float64(1<<30))
		}
	}
	return t, nil
}

// BlockingAblation (A3) toggles stalling on EXECUTING producers.
func BlockingAblation(base Config) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("A3 (%s): blocking on executing producers", opLabel(base.Op)),
		Header: []string{"blocking", "policy", "trimmed response(s)", "blocks", "avg overlap", "bytes read (GB)"},
		Notes:  []string{"blocking avoids duplicate I/O at the cost of stalls — the trade-off FF and CNBF rank around"},
	}
	for _, pol := range []string{"ff", "cnbf"} {
		for _, block := range []bool{true, false} {
			cfg := base
			cfg.Policy = pol
			cfg.DisableBlocking = !block
			m, err := Run(cfg)
			if err != nil {
				return t, err
			}
			t.AddRow(onOff(block), policyLabel(pol), m.TrimmedResponse, m.Server.Blocks, m.AvgOverlap, float64(m.Disk.BytesRead)/float64(1<<30))
		}
	}
	return t, nil
}

// WorkloadSensitivity (X2) compares the strategies across browsing
// patterns with different overlap structures: the paper's hotspot browse,
// a panning sweep (chained overlap between consecutive frames), and a
// zoom stack (cross-magnification overlap).
func WorkloadSensitivity(base Config) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("X2 (%s): trimmed response (s) across browsing patterns", opLabel(base.Op)),
		Header: []string{"policy", "browse", "pan", "zoomstack"},
		Notes: []string{
			"pan chains each frame to its predecessor; zoomstack revisits one center across magnifications;",
			"the reuse-aware strategies' advantage over FIFO depends on the overlap structure",
		},
	}
	modes := []load.Mode{load.Browse, load.Pan, load.ZoomStack}
	for _, pol := range Policies {
		row := []any{policyLabel(pol)}
		for _, mode := range modes {
			cfg := base
			cfg.Policy = pol
			cfg.Browse = mode
			m, err := Run(cfg)
			if err != nil {
				return t, err
			}
			row = append(row, m.TrimmedResponse)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// SeedSensitivity (X3) re-runs the headline comparison across several
// workload seeds and reports mean ± standard deviation, showing that the
// qualitative shapes are not an artifact of one workload draw.
func SeedSensitivity(base Config, seeds []int64) (Table, error) {
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3, 4, 5}
	}
	t := Table{
		Title:  fmt.Sprintf("X3 (%s): robustness across %d workload seeds (mean ± sd)", opLabel(base.Op), len(seeds)),
		Header: []string{"policy", "trimmed response (s)", "avg overlap", "batch makespan (s)"},
	}
	for _, pol := range Policies {
		var resp, ovl, mk []float64
		for _, seed := range seeds {
			cfg := base
			cfg.Policy = pol
			cfg.Seed = seed
			m, err := Run(cfg)
			if err != nil {
				return t, err
			}
			bcfg := cfg
			bcfg.Batch = true
			bm, err := Run(bcfg)
			if err != nil {
				return t, err
			}
			resp = append(resp, m.TrimmedResponse)
			ovl = append(ovl, m.AvgOverlap)
			mk = append(mk, bm.Makespan)
		}
		t.AddRow(policyLabel(pol), meanSD(resp), meanSD(ovl), meanSD(mk))
	}
	return t, nil
}

func meanSD(xs []float64) string {
	return fmt.Sprintf("%.2f ± %.2f", stats.Mean(xs), stats.StdDev(xs))
}

// PrefetchAblation (A4) sweeps the VM chunk read-ahead depth — the "data
// prefetching" optimization the paper's introduction lists alongside
// caching. Read-ahead overlaps one query's computation with its own I/O and
// spreads in-flight requests across the spindles, which matters most when
// few queries run concurrently.
func PrefetchAblation(base Config, depths []int) (Table, error) {
	if len(depths) == 0 {
		depths = []int{0, 2, 8}
	}
	t := Table{
		Title:  fmt.Sprintf("A4 (%s): chunk read-ahead depth", opLabel(base.Op)),
		Header: []string{"depth", "T=1 trimmed response(s)", "T=4 trimmed response(s)", "prefetches"},
		Notes:  []string{"depth 0 is the paper's synchronous chunk retrieval"},
	}
	for _, d := range depths {
		row := []any{fmt.Sprint(d)}
		var lastPf int64
		for _, th := range []int{1, 4} {
			cfg := base
			cfg.Policy = "cnbf"
			cfg.Threads = th
			cfg.PrefetchDepth = d
			m, err := Run(cfg)
			if err != nil {
				return t, err
			}
			row = append(row, m.TrimmedResponse)
			lastPf = m.PageSpace.Prefetches
		}
		row = append(row, fmt.Sprint(lastPf))
		t.AddRow(row...)
	}
	return t, nil
}

// FullRunSpans is a span ring that holds every span of a paper-scale run
// (16 clients × 16 queries at one thread finishes under 200k spans).
const FullRunSpans = 1 << 18

// TimelineReport traces the workload at each thread count and renders its
// timelines as sparklines: the visual version of the Figure 4 story — with
// few threads the disks idle between CPU phases, at the optimum they stay
// busy, and beyond it the queue drains quickly but every query crawls
// because the spindles thrash.
func TimelineReport(base Config, threads []int) (string, error) {
	if len(threads) == 0 {
		threads = []int{1, 4, 16}
	}
	if base.Policy == "" {
		base.Policy = "cnbf"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== Timeline (%s, %s): utilization while the workload runs ==\n", opLabel(base.Op), policyLabel(base.Policy))
	for _, th := range threads {
		cfg := base
		cfg.Threads = th
		cfg.TraceSpans = true
		cfg.TraceCapacity = FullRunSpans
		m, err := Run(cfg)
		if err != nil {
			return "", err
		}
		rows, err := timelineRows(m.Spans, th, timelineWidth)
		if err != nil {
			return "", fmt.Errorf("timeline threads=%d: %w", th, err)
		}
		fmt.Fprintf(&b, "\nthreads=%d  makespan=%.1fs  trimmed response=%.2fs\n%s",
			th, m.Makespan, m.TrimmedResponse, rows)
	}
	return b.String(), nil
}

// timelineWidth is the number of time buckets, and characters, per
// timeline row.
const timelineWidth = 72

// timelineRows draws a traced run's timelines over width time buckets: the
// mean busy fraction of the spindles, the queries executing (at most
// threads) and the queries waiting. A partial capture would draw a wrong
// picture, so a ring that dropped spans is an error.
func timelineRows(tr *trace.Tracer, threads, width int) (string, error) {
	if d := tr.Dropped(); d > 0 {
		return "", fmt.Errorf("span ring dropped %d of %d spans; the timeline needs the whole run", d, tr.Total())
	}
	c := traceviz.LoadSpans("timeline", tr.Spans(), nil)
	disk := make([]float64, width)
	spindles := 0
	for _, row := range traceviz.Utilization(c, width).Rows {
		if row.Class != "spindle" {
			continue
		}
		spindles++
		for i, v := range row.Busy {
			disk[i] += v
		}
	}
	for i := range disk {
		disk[i] /= float64(max(spindles, 1))
	}
	tl := traceviz.ComputeTimelines(c, width)
	var b strings.Builder
	for _, r := range []struct {
		name string
		vals []float64
		hi   float64
	}{
		{"disk util", disk, 1},
		{"executing", tl.Executing, float64(threads)},
		{"waiting", tl.QueueDepth, slices.Max(tl.QueueDepth)},
	} {
		fmt.Fprintf(&b, "%-12s %s  mean=%.2f\n", r.name, traceviz.Sparkline(r.vals, width, 0, r.hi), stats.Mean(r.vals))
	}
	return b.String(), nil
}

// ExtensionsComparison (X1) evaluates the paper's proposed future-work
// strategies — a combined SJF+locality policy, a self-tuning policy, and a
// resource-aware policy using low-level CPU/disk metrics — against the six
// original strategies on both workload modes.
func ExtensionsComparison(base Config) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("X1 (%s): future-work strategies vs the paper's six (§6)", opLabel(base.Op)),
		Header: []string{"policy", "trimmed response(s)", "avg overlap", "batch makespan(s)"},
		Notes: []string{
			"combined = CNBF locality − β·qinputsize (the SJF+locality combination the conclusions suggest);",
			"autotune = windowed epsilon-greedy self-tuning over the six strategies;",
			"ra = locality penalized by live CPU/disk utilization (low-level metrics)",
		},
	}
	pols := append(append([]string{}, Policies...), "combined", "autotune", "ra")
	for _, pol := range pols {
		cfg := base
		cfg.Policy = pol
		m, err := Run(cfg)
		if err != nil {
			return t, err
		}
		bcfg := cfg
		bcfg.Batch = true
		bm, err := Run(bcfg)
		if err != nil {
			return t, err
		}
		t.AddRow(policyLabel(pol), m.TrimmedResponse, m.AvgOverlap, bm.Makespan)
	}
	return t, nil
}

// Calibration reports the CPU:I/O time ratio of both VM implementations,
// which the paper states as 0.04-0.06 for subsampling and ~1:1 for
// averaging.
func Calibration(base Config) (Table, error) {
	t := Table{
		Title:  "Calibration: CPU:I/O ratio of the two VM implementations (§5)",
		Header: []string{"app", "cpu busy (s)", "disk busy (s)", "CPU:I/O", "paper"},
	}
	for _, op := range []vm.Op{vm.Subsample, vm.Average} {
		cfg := base
		cfg.Op = op
		cfg.Policy = "fifo"
		cfg.DSBudget = -1 // measure the raw implementations without reuse
		m, err := Run(cfg)
		if err != nil {
			return t, err
		}
		want := "0.04-0.06"
		if op == vm.Average {
			want = "~1:1"
		}
		t.AddRow(opLabel(op), m.CPUBusySeconds, m.DiskBusySeconds, m.CPUToIORatio, want)
	}
	return t, nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func intHeaders(vals []int, format string) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf(format, v)
	}
	return out
}

func memHeaders(mems []int64) []string {
	out := make([]string, len(mems))
	for i, m := range mems {
		out[i] = fmt.Sprintf("%dMB", m/MB)
	}
	return out
}
