package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive"
// method), so a spread computed here is the spread the driver
// computes. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
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
	return cut(1), cut(2), cut(3), true
}

// spread is the distance between the first and third quartile as a
// share of the median: the steadiness measure the driver applies to
// every end-to-end metric.
func spread(xs []float64) float64 {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// tailLadder are the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// tailQuantile picks the highest rung of tailLadder, no higher than
// limit, that still has at least ten samples beyond it in a sample of
// n. Below twenty samples no rung qualifies: the sample supports no
// tail at all, and the median is returned with supported=false so
// nobody prints a p99 of five passes.
func tailQuantile(n int, limit float64) (q float64, supported bool) {
	for _, q := range tailLadder {
		if q <= limit && n-rank(q, n) >= 10 {
			return q, true
		}
	}
	return 0.50, false
}

// rank is the 1-based nearest-rank position of quantile q in n sorted
// samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(q, len(s))-1]
}

// tail reports the highest supported tail percentile of xs, up to
// limit, and which one it is.
func tail(xs []float64, limit float64) (value, q float64, supported bool) {
	if len(xs) == 0 {
		return 0, 0.50, false
	}
	q, supported = tailQuantile(len(xs), limit)
	if !supported {
		return median(xs), q, false
	}
	return quantile(xs, q), q, true
}

// interval is a half-open [start, end) stretch of time in any unit.
type interval struct{ start, end float64 }

// selfTime is a span's duration minus the part of it its children
// cover: children are clipped to the span and overlapping children are
// counted once.
func selfTime(span interval, children []interval) float64 {
	total := span.end - span.start
	if total <= 0 {
		return 0
	}
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < span.start {
			c.start = span.start
		}
		if c.end > span.end {
			c.end = span.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered, edge := 0.0, span.start
	for _, c := range clipped {
		if c.start > edge {
			edge = c.start
		}
		if c.end > edge {
			covered += c.end - edge
			edge = c.end
		}
	}
	return total - covered
}

// relGap is how much worse b is than a, as a share of a, for a metric
// where lower (or, with higherBetter, higher) is better. Negative means
// b is better.
func relGap(a, b float64, higherBetter bool) float64 {
	if a == 0 {
		return 0
	}
	if higherBetter {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
