package report

import (
	"math"
	"sort"
)

// Quantile returns the q-quantile (0 <= q <= 1) of the samples by linear
// interpolation between order statistics; 0 for no samples.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// Median is the 0.5-quantile.
func Median(samples []float64) float64 { return Quantile(samples, 0.5) }

// Quartiles returns the first and third quartile as Python's
// statistics.quantiles(samples, n=4) gives them (the exclusive method), so a
// spread computed here equals the one the benchmark's acceptance check
// computes. Fewer than two samples have no quartiles: both read the median.
func Quartiles(samples []float64) (q1, q3 float64) {
	n := len(samples)
	if n < 2 {
		return Median(samples), Median(samples)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// Spread is the distance between the quartiles as a share of the median:
// the run-to-run spread a bound is compared against. It is 0 when fewer
// than three samples leave the quartiles meaningless.
func Spread(samples []float64) float64 {
	med := Median(samples)
	if len(samples) < 3 || med == 0 {
		return 0
	}
	q1, q3 := Quartiles(samples)
	return (q3 - q1) / math.Abs(med)
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// TailQuantile returns the highest quantile, capped at p99, that still has
// at least ten of n samples beyond it. Below twenty samples no tail can be
// told from the median, which then stands in (q = 0.5).
func TailQuantile(n int) float64 {
	if n < 2*minBeyond {
		return 0.5
	}
	return math.Min(0.99, float64(n-minBeyond)/float64(n))
}

// Tail returns the samples' TailQuantile value and the quantile used.
func Tail(samples []float64) (value, q float64) {
	q = TailQuantile(len(samples))
	return Quantile(samples, q), q
}
