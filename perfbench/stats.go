package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the fewest samples a percentile estimate must have beyond it;
// a p95 therefore needs at least 200 samples.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank. It
// refuses an estimate with fewer than minTail samples beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if n-1-k < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", q*100, n, max(n-1-k, 0), minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k], nil
}

// median is the middle value of xs (mean of the two middle values for an
// even count); 0 for no values. It is used for repeated set-up times, where
// the sample count is small by design.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// probeOutcome is what one capacity probe measured.
type probeOutcome struct {
	rate     float64
	p95MS    float64 // 0 when the probe was cut short
	failures int
	// backlog reports that the queue of outstanding queries grew past the
	// probe's limit, so the probe was cut short.
	backlog bool
	err     error // percentile refused
}

// meets reports whether the probe held the SLO: p95 within slo, no failed
// query, and no growing backlog.
func (p probeOutcome) meets(sloMS float64) bool {
	return p.err == nil && !p.backlog && p.failures == 0 && p.p95MS <= sloMS
}

// searchCapacity finds the highest rate that meets the SLO. lo is a rate
// known to meet it (0 if none is known). The first probe is at first; while
// no failing rate is known the probed rate doubles, and after that each
// probe bisects the bracket. It returns the midpoint of the final bracket,
// or lo if no probe failed.
func searchCapacity(lo, first float64, probes int, probe func(rate float64) bool) float64 {
	hi := 0.0
	r := first
	for i := 0; i < probes; i++ {
		if probe(r) {
			lo = r
		} else {
			hi = r
		}
		if hi == 0 {
			r = 2 * lo
		} else {
			r = (lo + hi) / 2
		}
	}
	if hi == 0 {
		return lo
	}
	return (lo + hi) / 2
}

// fitCapacity refines the capacity search: it fits a least-squares line to
// log(p95) against rate over the probes whose p95 lies within a factor of 8
// of the SLO, and returns the rate where the line crosses the SLO. Near the
// limit a single probe's p95 is noisy, so one unlucky probe can send
// bisection into the wrong half; the fit uses every probe bisection placed
// near the limit. The result is kept within the probed rates and below any
// rate that failed a query or built a backlog. With fewer than two usable
// probes, or a line that does not rise, it returns fallback.
func fitCapacity(probes []probeOutcome, sloMS, fallback float64) float64 {
	var rs, ls []float64
	lowest, highest, ceiling := math.Inf(1), 0.0, math.Inf(1)
	for _, p := range probes {
		lowest, highest = math.Min(lowest, p.rate), math.Max(highest, p.rate)
		if p.backlog || p.failures > 0 {
			ceiling = math.Min(ceiling, p.rate)
			continue
		}
		if p.err == nil && p.p95MS >= sloMS/8 && p.p95MS <= sloMS*8 {
			rs = append(rs, p.rate)
			ls = append(ls, math.Log(p.p95MS))
		}
	}
	if len(rs) < 2 {
		return fallback
	}
	var mr, ml float64
	for i := range rs {
		mr += rs[i] / float64(len(rs))
		ml += ls[i] / float64(len(rs))
	}
	var sxx, sxy float64
	for i := range rs {
		sxx += (rs[i] - mr) * (rs[i] - mr)
		sxy += (rs[i] - mr) * (ls[i] - ml)
	}
	if sxx == 0 || sxy <= 0 {
		return fallback
	}
	c := mr + (math.Log(sloMS)-ml)*sxx/sxy
	return math.Min(math.Max(c, lowest), math.Min(highest, ceiling))
}
