package traceviz

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series (a view's per-bucket values, for example)
// average-resampled to at most width characters and scaled to [lo, hi]; pass
// lo == hi to autoscale to the series' own range. Out-of-range values clamp.
func Sparkline(vals []float64, width int, lo, hi float64) string {
	if len(vals) == 0 {
		return ""
	}
	if width <= 0 {
		width = 60
	}
	if lo == hi {
		lo, hi = vals[0], vals[0]
		for _, v := range vals {
			lo, hi = min(lo, v), max(hi, v)
		}
		if lo == hi {
			hi = lo + 1
		}
	}
	n := len(vals)
	width = min(width, n)
	out := make([]rune, 0, width)
	for b := 0; b < width; b++ {
		from := b * n / width
		to := max((b+1)*n/width, from+1)
		var sum float64
		for _, v := range vals[from:to] {
			sum += v
		}
		frac := min(max((sum/float64(to-from)-lo)/(hi-lo), 0), 1)
		out = append(out, sparkRunes[int(frac*float64(len(sparkRunes)-1))])
	}
	return string(out)
}
