package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a percentile
// before it is reported: below that the "tail" is a handful of outliers
// and does not repeat between runs.
const minBeyond = 10

// tailLadder is the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// rank is the nearest-rank index (0-based) of percentile pct among n
// sorted samples: the smallest sample with at least pct% of the samples
// at or below it.
func rank(n int, pct float64) int {
	if n == 0 {
		return 0
	}
	r := int(math.Ceil(pct*float64(n)/100-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// beyond counts the samples strictly above percentile pct's rank.
func beyond(n int, pct float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, pct)
}

// supportedTail returns the highest ladder percentile with at least
// minBeyond samples beyond it, or 0 when even the lowest has too few.
func supportedTail(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// samples is a latency sample set; values are in the unit the caller
// chose. Percentile sorts lazily.
type samples struct {
	v      []float64
	sorted bool
}

func (s *samples) add(x float64) { s.v = append(s.v, x); s.sorted = false }

func (s *samples) n() int { return len(s.v) }

func (s *samples) sort() {
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
}

// pct returns percentile p (nearest rank), or 0 for an empty set and
// for p = 0, which is supportedTail's "no tail can be reported".
func (s *samples) pct(p float64) float64 {
	if len(s.v) == 0 || p == 0 {
		return 0
	}
	s.sort()
	return s.v[rank(len(s.v), p)]
}

// median is the midpoint median (mean of the two middle samples when n
// is even), which moves less between runs than nearest rank for the
// small per-run sample counts of the slow operations.
func (s *samples) median() float64 {
	n := len(s.v)
	if n == 0 {
		return 0
	}
	s.sort()
	if n%2 == 1 {
		return s.v[n/2]
	}
	return (s.v[n/2-1] + s.v[n/2]) / 2
}

func (s *samples) mean() float64 {
	if len(s.v) == 0 {
		return 0
	}
	return s.sum() / float64(len(s.v))
}

func (s *samples) sum() float64 {
	t := 0.0
	for _, x := range s.v {
		t += x
	}
	return t
}

// stderr is the standard error of the mean (0 with fewer than two
// samples).
func (s *samples) stderr() float64 {
	n := float64(len(s.v))
	if n < 2 {
		return 0
	}
	m, ss := s.mean(), 0.0
	for _, x := range s.v {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/(n-1)) / math.Sqrt(n)
}

func medianOf(xs []float64) float64 {
	s := samples{v: append([]float64(nil), xs...)}
	return s.median()
}

// quartiles returns (q1, median, q3) by the exclusive method, matching
// Python's statistics.quantiles(values, n=4), which is what the
// acceptance driver uses to judge run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
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
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// quiet is the lower quartile of a sample set. The sandbox's noise is
// one-sided — a burst on a shared core only ever makes a slice slower —
// and comes in bursts of seconds, so a quantity measured once per slice
// of the run is reported at the lower quartile of its slices: the value
// on an undisturbed machine, which is the one a change to the code moves.
func quiet(s *samples) float64 { return s.pct(25) }

// sliceMeans cuts xs (in time order) into consecutive slices of per
// samples and returns each full slice's mean. With fewer than per samples
// the whole set is the one slice.
func sliceMeans(xs []float64, per int) samples {
	var out samples
	if len(xs) < per || per <= 0 {
		out.add((&samples{v: xs}).mean())
		return out
	}
	for i := 0; i+per <= len(xs); i += per {
		out.add((&samples{v: xs[i : i+per]}).mean())
	}
	return out
}
