package main

import (
	"math"
	"testing"
)

// The percentile-selection rule: a tail is reported only at the highest
// percentile with at least ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v (beyond p75=%d p90=%d p95=%d p99=%d)", c.n, got, c.want,
				beyond(c.n, 75), beyond(c.n, 90), beyond(c.n, 95), beyond(c.n, 99))
		}
	}
	// The rule itself, independent of the ladder: whatever is returned has
	// ≥ 10 samples beyond it, and the next rung up does not.
	for n := 1; n < 3000; n += 7 {
		p := supportedTail(n)
		if p != 0 && beyond(n, p) < minBeyond {
			t.Fatalf("n=%d: p%v has only %d beyond", n, p, beyond(n, p))
		}
		for _, q := range tailLadder {
			if q > p && beyond(n, q) >= minBeyond {
				t.Fatalf("n=%d: chose p%v although p%v has %d beyond", n, p, q, beyond(n, q))
			}
		}
	}
}

func TestPercentilesNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}, {25, 25}} {
		if got := s.pct(c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", got)
	}
	if got := s.median(); got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
	var empty samples
	if empty.pct(50) != 0 || empty.median() != 0 || empty.mean() != 0 {
		t.Error("empty sample set must report zeros")
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which is what the acceptance driver judges spread with.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q2 != 3.5 || q3 != 5.75 {
		t.Errorf("quartiles = %v %v %v, want 1.25 3.5 5.75", q1, q2, q3)
	}
	if got, want := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSliceMeans(t *testing.T) {
	xs := []float64{1, 2, 3, 10, 20, 30, 100, 200} // two full slices of three, a short tail dropped
	got := sliceMeans(xs, 3)
	if got.n() != 2 || got.v[0] != 2 || got.v[1] != 20 {
		t.Errorf("sliceMeans = %v, want [2 20]", got.v)
	}
	one := sliceMeans([]float64{5, 7}, 3)
	if one.n() != 1 || one.v[0] != 6 {
		t.Errorf("short input must be one slice: %v", one.v)
	}
	if q := quiet(&samples{v: []float64{4, 1, 3, 2}}); q != 1 {
		t.Errorf("quiet quartile of 1..4 = %v, want 1", q)
	}
	se := (&samples{v: []float64{1, 2, 3, 4, 5}}).stderr()
	if math.Abs(se-math.Sqrt(2.5)/math.Sqrt(5)) > 1e-12 {
		t.Errorf("stderr of 1..5 = %v", se)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100}
	worse := []float64{115, 116, 114, 115, 115, 116, 114, 115}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 100}
	if w, _, _ := verdict(steady, steady, "lower", 0.10); w != "unchanged" {
		t.Errorf("same runs: %s", w)
	}
	if w, d, _ := verdict(steady, worse, "lower", 0.10); w != "regressed" || math.Abs(d-0.15) > 0.01 {
		t.Errorf("15%% slower at a 10%% bound: %s %.3f", w, d)
	}
	if w, _, _ := verdict(steady, worse, "lower", 0.25); w != "unchanged" {
		t.Errorf("15%% slower at a 25%% bound: %s", w)
	}
	if w, _, _ := verdict(worse, steady, "higher", 0.10); w != "regressed" {
		t.Errorf("a rate that fell 13%%: %s", w)
	}
	if w, _, sp := verdict(steady, noisy, "lower", 0.10); w != "unresolved" || sp <= 0.10 {
		t.Errorf("spread wider than the bound must be unresolved: %s spread %.2f", w, sp)
	}
}
