package load

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"mqsched/internal/netproto"
	"mqsched/internal/stats"
)

// RunnerConfig configures one open-loop measurement phase against a live
// server (or several — a fleet addressed directly, or one mqrouter).
type RunnerConfig struct {
	// Addr is the mqserver address.
	Addr string
	// Addrs addresses several servers at once: queries round-robin across
	// them and the reuse scrape sums every server's counters. Mutually
	// exclusive with Addr.
	Addrs []string
	// Workers bounds concurrent in-flight requests and the connection pool
	// size (default 32).
	Workers int
	// QueueCap bounds the arrival buffer between the dispatcher and the
	// workers (default 65536). In an open loop arrivals never wait for
	// completions; when the buffer fills, further arrivals are counted as
	// dropped instead of blocking the clock — the honest overload signal.
	QueueCap int
	// Warmup excludes queries arriving before this offset from the
	// statistics (they still run, heating the caches).
	Warmup time.Duration
	// RelErr is the latency sketch's relative error bound (default 0.01).
	RelErr float64
	// Record, when non-nil, receives one JSON line per completed query
	// (ts/seq/user/latency/server timings) for offline analysis.
	Record io.Writer
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
}

func (c RunnerConfig) withDefaults() RunnerConfig {
	if c.Workers == 0 {
		c.Workers = 32
	}
	if c.QueueCap == 0 {
		c.QueueCap = 65536
	}
	if c.RelErr == 0 {
		c.RelErr = 0.01
	}
	return c
}

// addrs is the effective server list.
func (c RunnerConfig) addrs() []string {
	if len(c.Addrs) > 0 {
		return c.Addrs
	}
	if c.Addr != "" {
		return []string{c.Addr}
	}
	return nil
}

// Validate reports the first configuration error.
func (c RunnerConfig) Validate() error {
	d := c.withDefaults()
	for _, a := range c.Addrs {
		if strings.TrimSpace(a) == "" {
			return fmt.Errorf("load: empty server address in Addrs")
		}
	}
	switch {
	case c.Addr != "" && len(c.Addrs) > 0:
		return fmt.Errorf("load: set Addr or Addrs, not both")
	case len(c.addrs()) == 0:
		return fmt.Errorf("load: runner needs a server address")
	case d.Workers < 1:
		return fmt.Errorf("load: workers %d < 1", c.Workers)
	case d.QueueCap < 1:
		return fmt.Errorf("load: queue capacity %d < 1", c.QueueCap)
	case c.Warmup < 0:
		return fmt.Errorf("load: warmup %v < 0", c.Warmup)
	case !(d.RelErr > 0 && d.RelErr < 1):
		return fmt.Errorf("load: sketch relative error %v outside (0, 1)", c.RelErr)
	}
	return nil
}

// Result summarizes one phase. Latency statistics cover only measured
// (post-warmup) completions.
type Result struct {
	// Offered is the configured arrival rate in queries/sec.
	Offered float64
	// Sent counts queries handed to workers; Dropped counts arrivals that
	// found the queue full (overload); Errors counts transport or server
	// errors.
	Sent, Dropped, Errors int
	// Completed counts successful responses; Measured is the post-warmup
	// subset the statistics describe.
	Completed, Measured int
	// Elapsed is the wall time of the whole phase; MeasuredTime is the
	// post-warmup portion.
	Elapsed, MeasuredTime time.Duration
	// AchievedQPS is Measured / MeasuredTime — the served throughput at
	// this offered load.
	AchievedQPS float64
	// Latency is the streaming sketch of measured latencies in
	// milliseconds, each from the query's scheduled arrival to its response.
	Latency *stats.Sketch
	// MeanReuse is the mean server-reported reused fraction of measured
	// queries.
	MeanReuse float64
	// ServerReusedFrac is the byte-weighted reuse fraction over the whole
	// phase, computed from the server's reused/computed output-byte counters
	// scraped before and after the phase (0 when the scrape failed or the
	// server produced no output bytes).
	ServerReusedFrac float64
}

// record is one per-query JSONL line for offline analysis (mqviz).
type record struct {
	Seq  int     `json:"seq"`
	User int     `json:"user"`
	AtMS float64 `json:"at_ms"` // scheduled arrival offset
	// LatMS is the client-observed latency: from the scheduled arrival
	// instant to the response, so it includes time the query spent queued
	// client-side waiting for a free worker.
	LatMS   float64 `json:"lat_ms"`
	WaitMS  float64 `json:"wait_ms"` // server-reported queueing delay
	Reused  float64 `json:"reused"`
	Err     string  `json:"err,omitempty"`
	Warmup  bool    `json:"warmup,omitempty"`
	Offered float64 `json:"offered_qps"`
}

// Run offers the stream to the server at its recorded arrival instants and
// collects per-phase statistics. offered is recorded in the result and the
// JSONL lines; it does not re-time the stream.
func Run(cfg RunnerConfig, items []Item, offered float64) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	cfg = cfg.withDefaults()

	addrs := cfg.addrs()
	pools := make([]*netproto.Pool, len(addrs))
	for i, a := range addrs {
		pools[i] = netproto.NewPool(a, cfg.Workers, cfg.DialTimeout)
	}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	// Fail fast if any server is unreachable or unhealthy, before starting
	// the clock. A transport success with an application-level error (e.g. a
	// server refusing the verb) is just as fatal as a failed dial. The
	// concatenated scrapes seed the reuse delta: counterValue sums samples, so
	// multi-server counters aggregate exactly like one server's.
	before, err := scrapeAll(pools, addrs)
	if err != nil {
		return Result{}, err
	}

	res := Result{Offered: offered, Latency: stats.NewSketch(cfg.RelErr)}
	queue := make(chan Item, cfg.QueueCap)
	var (
		mu        sync.Mutex // guards res counters + record writer
		reuseSum  float64
		wg        sync.WaitGroup
		recordEnc *json.Encoder
	)
	if cfg.Record != nil {
		recordEnc = json.NewEncoder(cfg.Record)
	}

	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sk := stats.NewSketch(cfg.RelErr) // shard; merged at the end
			for it := range queue {
				req := &netproto.Request{
					Slide: it.Meta.DS,
					X0:    it.Meta.Rect.X0, Y0: it.Meta.Rect.Y0,
					X1: it.Meta.Rect.X1, Y1: it.Meta.Rect.Y1,
					Zoom: it.Meta.Zoom, Op: it.Meta.Op.String(),
					OmitPixels: true,
				}
				resp, err := pools[it.Seq%len(pools)].Get().Do(req)
				// Open-loop latency runs from the scheduled arrival, not
				// from worker pickup, so client-side queueing counts.
				lat := time.Since(start.Add(it.At))
				if err == nil && resp.Err != "" {
					err = fmt.Errorf("%s", resp.Err)
				}
				measured := err == nil && it.At >= cfg.Warmup
				if measured {
					sk.Add(float64(lat.Microseconds()) / 1000)
				}
				mu.Lock()
				if err != nil {
					res.Errors++
				} else {
					res.Completed++
					if measured {
						res.Measured++
						reuseSum += resp.ReusedFrac
					}
				}
				if recordEnc != nil {
					rec := record{
						Seq: it.Seq, User: it.User,
						AtMS:    float64(it.At.Microseconds()) / 1000,
						LatMS:   float64(lat.Microseconds()) / 1000,
						Warmup:  it.At < cfg.Warmup,
						Offered: offered,
					}
					if err != nil {
						rec.Err = err.Error()
					} else {
						rec.WaitMS = resp.WaitMS
						rec.Reused = resp.ReusedFrac
					}
					recordEnc.Encode(&rec)
				}
				mu.Unlock()
			}
			mu.Lock()
			res.Latency.Merge(sk)
			mu.Unlock()
		}()
	}

	// The open-loop dispatcher: release each arrival at its instant,
	// regardless of how far behind the workers are.
	for _, it := range items {
		if d := it.At - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		select {
		case queue <- it:
			res.Sent++
		default:
			res.Dropped++
		}
	}
	close(queue)
	wg.Wait()

	res.Elapsed = time.Since(start)
	res.MeasuredTime = measuredWindow(res.Elapsed, cfg.Warmup)
	if res.MeasuredTime > 0 {
		res.AchievedQPS = float64(res.Measured) / res.MeasuredTime.Seconds()
	}
	if res.Measured > 0 {
		res.MeanReuse = reuseSum / float64(res.Measured)
	}
	// Re-scrape the servers' output-byte counters; the delta over the phase
	// gives the byte-weighted reuse fraction. A failed scrape only costs
	// this one derived field, never the phase.
	if after, err := scrapeAll(pools, addrs); err == nil {
		res.ServerReusedFrac = reusedFracDelta(before, after)
	}
	return res, nil
}

// scrapeAll fetches every server's METRICS dump and concatenates them;
// counterValue sums samples across the result, making multi-server reuse
// deltas cluster-wide for free.
func scrapeAll(pools []*netproto.Pool, addrs []string) (string, error) {
	var sb strings.Builder
	for i, p := range pools {
		resp, err := p.Get().Do(&netproto.Request{Verb: netproto.VerbMetrics})
		if err == nil && resp.Err != "" {
			err = fmt.Errorf("server error: %s", resp.Err)
		}
		if err != nil {
			return "", fmt.Errorf("load: probing %s: %w", addrs[i], err)
		}
		sb.WriteString(resp.Metrics)
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// measuredWindow is the post-warmup portion of the phase. A phase that ends
// before the warmup elapses (server died, stream exhausted early) reports a
// zero window rather than a negative one, which would flip AchievedQPS's
// sign downstream.
func measuredWindow(elapsed, warmup time.Duration) time.Duration {
	if elapsed <= warmup {
		return 0
	}
	return elapsed - warmup
}

// reusedFracDelta computes reused / (reused + computed) output bytes from
// two Prometheus text scrapes taken before and after the phase.
func reusedFracDelta(before, after string) float64 {
	reused := counterValue(after, "mqsched_server_reused_output_bytes_total") -
		counterValue(before, "mqsched_server_reused_output_bytes_total")
	computed := counterValue(after, "mqsched_server_computed_output_bytes_total") -
		counterValue(before, "mqsched_server_computed_output_bytes_total")
	if total := reused + computed; total > 0 {
		return reused / total
	}
	return 0
}

// counterValue sums the samples of one metric in a Prometheus text
// exposition, matching both bare and labelled sample lines. Absent metrics
// contribute zero.
func counterValue(text, name string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // a longer metric name sharing the prefix
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}
