package traceviz

import "testing"

func TestSparkline(t *testing.T) {
	if Sparkline(nil, 10, 0, 0) != "" {
		t.Fatal("empty series should render empty")
	}
	s := Sparkline([]float64{0, 0.5, 1}, 3, 0, 1)
	r := []rune(s)
	if len(r) != 3 {
		t.Fatalf("width = %d", len(r))
	}
	if r[0] != '▁' || r[2] != '█' {
		t.Fatalf("sparkline = %q", s)
	}
	// Constant series autoscale must not divide by zero.
	if got := Sparkline([]float64{5, 5, 5}, 3, 0, 0); len([]rune(got)) != 3 {
		t.Fatalf("constant sparkline = %q", got)
	}
	// Out-of-range values clamp.
	if got := Sparkline([]float64{-10, 20}, 2, 0, 1); []rune(got)[0] != '▁' || []rune(got)[1] != '█' {
		t.Fatalf("clamped sparkline = %q", got)
	}
	// Downsampling averages buckets.
	long := make([]float64, 100)
	for i := range long {
		long[i] = float64(i)
	}
	if got := Sparkline(long, 10, 0, 0); len([]rune(got)) != 10 {
		t.Fatalf("downsampled width = %d", len([]rune(got)))
	}
	// Width larger than the series shrinks to the series length.
	if got := Sparkline([]float64{1, 2}, 50, 0, 0); len([]rune(got)) != 2 {
		t.Fatalf("overwide sparkline = %q", got)
	}
}
