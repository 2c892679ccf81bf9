package main

import (
	"math"
	"sort"

	"lrcdsm/internal/serve/hist"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for no values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// returns (its default "exclusive" method), so -selfcheck computes the
// spread exactly as the benchmark driver does. Fewer than two values
// have no spread: all three cut points are the single value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share
// of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentile returns the q-quantile (q in [0,1]) of xs by linear
// interpolation between order statistics.
func percentile(xs []float64, q float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	rank := q * float64(len(s)-1)
	lo := int(rank)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (rank-float64(lo))*(s[lo+1]-s[lo])
}

// tailLadder is the percentiles a tail may be reported at.
var tailLadder = []float64{0.50, 0.90, 0.99, 0.999, 0.9999}

// tailQuantile returns the highest rung of tailLadder, no higher than
// limit, that still has at least ten of n samples beyond it. With fewer
// than twenty samples nothing but the median is supported.
func tailQuantile(n int64, limit float64) float64 {
	best := tailLadder[0]
	for _, q := range tailLadder {
		// 1-q is inexact in binary (100 x (1-0.9) = 9.999...98).
		if q <= limit && float64(n)*(1-q) >= 10-1e-6 {
			best = q
		}
	}
	return best
}

// mergeBuckets adds src's counts into dst, keyed by the bucket's lower
// bound (bucket boundaries are fixed by the hist package, so equal lower
// bounds mean equal buckets).
func mergeBuckets(dst map[int64]hist.Bucket, src []hist.Bucket) {
	for _, b := range src {
		d := dst[b.LoNs]
		d.LoNs, d.HiNs = b.LoNs, b.HiNs
		d.Count += b.Count
		dst[b.LoNs] = d
	}
}

// bucketQuantile returns the q-quantile in ns of a merged histogram,
// interpolated linearly inside the holding bucket, and the sample count.
func bucketQuantile(m map[int64]hist.Bucket, q float64) (ns float64, n int64) {
	bs := make([]hist.Bucket, 0, len(m))
	for _, b := range m {
		bs = append(bs, b)
		n += b.Count
	}
	if n == 0 {
		return 0, 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].LoNs < bs[j].LoNs })
	rank := q * float64(n)
	var cum float64
	for _, b := range bs {
		c := float64(b.Count)
		if cum+c >= rank {
			return float64(b.LoNs) + (rank-cum)/c*float64(b.HiNs-b.LoNs), n
		}
		cum += c
	}
	return float64(bs[len(bs)-1].HiNs), n
}
