package experiment

import (
	"fmt"
	"time"

	"mqsched/internal/datastore"
	"mqsched/internal/load"
	"mqsched/internal/query"
	"mqsched/internal/server"
	"mqsched/internal/stats"
)

// LoadMetrics summarizes one open-loop load run on the simulated runtime.
// Times are virtual seconds, so results are deterministic in the seeds —
// this is the fast test path for the same generator/runner workloads
// cmd/mqload offers to a live server.
type LoadMetrics struct {
	Policy   string
	Offered  float64 // empirical offered rate of the stream, queries/sec
	Queries  int     // completed
	Measured int     // post-warmup completions the statistics describe
	// AchievedQPS is measured completions over the post-warmup window.
	AchievedQPS float64
	// Latency quantiles in virtual seconds (from the streaming sketch).
	P50, P95, P99, Max, Mean float64
	// MeanReuse is the mean reused fraction of measured queries.
	MeanReuse float64
	// ReusedBytesFrac is the fraction of all output bytes produced by
	// projection rather than raw computation, over the whole run — the
	// byte-weighted counterpart of MeanReuse and the cache-policy sweep's
	// primary figure of merit.
	ReusedBytesFrac float64
	// FinalTime is the virtual instant the last query completed.
	FinalTime time.Duration
	// Server and DataStore are the end-of-run subsystem counters (DataStore
	// is zero when the run disabled the data store).
	Server    server.Stats
	DataStore datastore.Stats
}

// RunLoad offers an open-loop query stream (load.Build) to the simulated
// stack as one client that releases each item at its virtual arrival
// instant and collects the answers after its last submission; response
// times run from arrival to completion, warmup excluded. Unlike
// RunWorkload's closed-loop clients, arrivals here never wait for
// completions, so queueing delay under overload is visible.
func RunLoad(cfg Config, items []load.Item, warmup time.Duration) (LoadMetrics, error) {
	if len(items) == 0 {
		return LoadMetrics{}, fmt.Errorf("experiment: empty load stream")
	}
	if warmup < 0 {
		return LoadMetrics{}, fmt.Errorf("experiment: warmup %v < 0", warmup)
	}
	cfg = cfg.withDefaults()
	st, err := vmStack(cfg)
	if err != nil {
		return LoadMetrics{}, err
	}

	stream := client{queries: make([]query.Meta, len(items)), at: make([]time.Duration, len(items))}
	for i, it := range items {
		stream.queries[i], stream.at[i] = it.Meta, it.At
	}
	answers, err := launch(st, []client{stream})
	if err != nil {
		return LoadMetrics{}, fmt.Errorf("experiment load %v: %w", cfg.Policy, err)
	}

	sk := stats.NewSketch(0.005)
	var (
		measured  int
		reuseSum  float64
		finalTime time.Duration
	)
	for _, a := range answers {
		if a.at >= warmup {
			measured++
			sk.Add(a.res.ResponseTime().Seconds())
			reuseSum += a.res.ReusedFrac
		}
		finalTime = max(finalTime, a.res.Completed)
	}

	m := LoadMetrics{
		Policy:    st.Policy.Name(),
		Offered:   float64(len(items)) / items[len(items)-1].At.Seconds(),
		Queries:   len(answers),
		Measured:  measured,
		P50:       sk.Quantile(50),
		P95:       sk.Quantile(95),
		P99:       sk.Quantile(99),
		Max:       sk.Max(),
		Mean:      sk.Mean(),
		FinalTime: finalTime,
	}
	if win := (finalTime - warmup).Seconds(); win > 0 {
		m.AchievedQPS = float64(measured) / win
	}
	if measured > 0 {
		m.MeanReuse = reuseSum / float64(measured)
	}
	m.Server = st.Server.Stats()
	if st.DataStore != nil {
		m.DataStore = st.DataStore.Stats()
	}
	if out := m.Server.ReusedOutputBytes + m.Server.ComputedOutputBytes; out > 0 {
		m.ReusedBytesFrac = float64(m.Server.ReusedOutputBytes) / float64(out)
	}
	return m, nil
}
