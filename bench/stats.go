package bench

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks. xs is sorted in place; an empty
// slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is percentile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// Quartiles returns the first quartile, median and third quartile of
// xs the way Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method), so spreads printed by benchdiff match
// the ones an outside check computes. With fewer than two values every
// quartile is the single value (or 0 for none).
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		// CPython's exclusive method, integer arithmetic included: rank
		// i*(n+1)/4, clamped to 1..n-1, interpolated (or extrapolated,
		// as CPython does after clamping) between neighbours.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
