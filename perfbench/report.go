package main

import (
	"fmt"
	"time"

	"mqsched"
)

// counts are the subsystem counters a workload reads before and after its
// measured span (mqsched.System.Stats), flattened so spans can be
// subtracted and backends summed.
type counts map[string]int64

func countsOf(st mqsched.Stats) counts {
	return counts{
		"server.completed":       st.Server.Completed,
		"server.full_hits":       st.Server.FullHits,
		"server.projections":     st.Server.Projections,
		"server.blocks":          st.Server.Blocks,
		"server.raw_bytes":       st.Server.RawBytes,
		"server.reused_bytes":    st.Server.ReusedOutputBytes,
		"server.computed_bytes":  st.Server.ComputedOutputBytes,
		"sched.inserted":         st.Graph.Inserted,
		"sched.dequeued":         st.Graph.Dequeued,
		"sched.edge_pairs":       st.Graph.EdgePairs,
		"sched.reranks":          st.Graph.ReRanks,
		"datastore.inserts":      st.DataStore.Inserts,
		"datastore.evictions":    st.DataStore.Evictions,
		"datastore.lookups":      st.DataStore.Lookups,
		"datastore.lookup_hits":  st.DataStore.LookupHits,
		"datastore.reused_bytes": st.DataStore.ReusedBytes,
		"pagespace.hits":         st.PageSpace.Hits,
		"pagespace.misses":       st.PageSpace.Misses,
		"pagespace.coalesced":    st.PageSpace.InflightWaits,
		"pagespace.evictions":    st.PageSpace.Evictions,
		"pagespace.bytes_read":   st.PageSpace.BytesRead,
		"disk.reads":             st.Disk.Reads,
		"disk.bytes_read":        st.Disk.BytesRead,
		"disk.service_ns":        int64(st.Disk.ServiceSum),
	}
}

func (c counts) minus(o counts) counts {
	d := counts{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

func (c counts) plus(o counts) counts {
	d := counts{}
	for k, v := range c {
		d[k] += v
	}
	for k, v := range o {
		d[k] += v
	}
	return d
}

// layerSpan is what a traced pass observed over its measured span.
type layerSpan struct {
	wall   time.Duration
	counts counts // subsystem counter deltas
	sm     *seams
	proc   procSample // deltas
	// Per-query samples in ms. lag is the open-loop dispatch lateness;
	// net is the client round trip minus the server's response time.
	wait, exec, lag, net []float64
	// Wire only: response payload bytes, and router decisions.
	respBytes float64
	routed    []int64 // per backend
	spilled   int64
}

// pct is a percentile of samples, or 0 when the layer is not on the
// workload's path (no samples at all).
func pct(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	return percentile(xs, q)
}

// layerMetrics derives the per-layer metrics of a traced pass. Per-query
// figures divide by the queries the servers completed in the span.
func layerMetrics(ls layerSpan) (map[string]float64, error) {
	c := func(k string) float64 { return float64(ls.counts[k]) }
	q := c("server.completed")
	perQ := func(v float64) float64 { return ratio(v, q) }
	nsToMS := func(ns int64) float64 { return float64(ns) / 1e6 }
	sm := ls.sm
	ps := c("pagespace.hits") + c("pagespace.misses") + c("pagespace.coalesced")
	serviceMS := c("disk.service_ns") * timeScale / 1e6

	m := map[string]float64{
		"sched.reranks_per_query":        perQ(c("sched.reranks")),
		"sched.overlap_us_per_query":     perQ(float64(sm.overlap.Load()) / 1e3),
		"server.blocks_per_query":        perQ(c("server.blocks")),
		"server.full_hit_frac":           perQ(c("server.full_hits")),
		"datastore.reuse_frac":           ratio(c("server.reused_bytes"), c("server.reused_bytes")+c("server.computed_bytes")),
		"datastore.lookup_hit_frac":      ratio(c("datastore.lookup_hits"), c("datastore.lookups")),
		"datastore.evictions_per_query":  perQ(c("datastore.evictions")),
		"datastore.project_ms_per_query": perQ(nsToMS(sm.project.Load())),
		"pagespace.hit_frac":             ratio(c("pagespace.hits"), ps),
		"pagespace.coalesce_frac":        ratio(c("pagespace.coalesced"), ps),
		"pagespace.evictions_per_query":  perQ(c("pagespace.evictions")),
		"pagespace.read_ms_per_query":    perQ(nsToMS(sm.read.Load())),
		"disk.reads_per_query":           perQ(c("disk.reads")),
		"disk.service_ms_per_query":      perQ(serviceMS),
		"disk.busy_frac":                 ratio(serviceMS, numDisks*ms(ls.wall)),
		// Under FIFO disks every read on the real runtime generates its page
		// exactly once.
		"vm.gen_pages_per_query":     perQ(c("disk.reads")),
		"vm.gen_ms_per_query":        perQ(nsToMS(sm.gen.Load())),
		"vm.gen_cpu_frac":            ratio(float64(sm.gen.Load()), float64(ls.proc.cpu)),
		"vm.compute_ms_per_query":    perQ(nsToMS(sm.compute.Load())),
		"vm.compute_mb_per_s":        ratio(float64(sm.computeBytes.Load())/1e6, float64(sm.compute.Load())/1e9),
		"netproto.resp_kb_per_query": perQ(ls.respBytes / 1024),
		"cluster.spill_frac":         0,
		"cluster.imbalance":          0,
		"proc.gc_cpu_frac":           ratio(ls.proc.gcCPU, ls.proc.cpu.Seconds()),
		"proc.alloc_mb_per_query":    perQ(float64(ls.proc.alloc) / 1e6),
	}
	if len(ls.routed) > 0 {
		var sum, top int64
		for _, r := range ls.routed {
			sum += r
			top = max(top, r)
		}
		m["cluster.spill_frac"] = ratio(float64(ls.spilled), float64(sum))
		m["cluster.imbalance"] = ratio(float64(top), float64(sum)/float64(len(ls.routed)))
	}
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"sched.wait_ms_p50", ls.wait, 0.5},
		{"sched.wait_ms_p95", ls.wait, 0.95},
		{"server.exec_ms_p50", ls.exec, 0.5},
		{"server.exec_ms_p95", ls.exec, 0.95},
		{"netproto.overhead_ms_p50", ls.net, 0.5},
		{"netproto.overhead_ms_p95", ls.net, 0.95},
		{"load.lag_ms_p95", ls.lag, 0.95},
	} {
		v, err := pct(p.xs, p.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		m[p.name] = v
	}
	return m, nil
}
