package main

import (
	"math"
	"testing"
	"time"
)

// Span self time = duration − the part of the interval the children
// cover: overlapping children count once, children are clipped to the
// parent, grandchildren belong to their own parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // leaves the parent by 20
		{ID: 4, Parent: 1, Name: "a.child", Start: 15, End: 25},
		{ID: 5, Parent: -1, Name: "open", Start: 5, End: -1}, // never closed
	}
	got := selfTimes(spans)
	want := []int64{
		100 - (50 + 10), // children cover [10,60] and [90,100]
		30 - 10,
		30,
		30,
		10,
		0,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

// The budget's rows sum to the mean latency of the band it was asked
// for, and self times never double-count.
func TestBudgetSumsToBandMean(t *testing.T) {
	var spans []span
	add := func(parent int32, name string, start, end int64) int32 {
		id := int32(len(spans))
		spans = append(spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
		return id
	}
	// Eleven requests of 10,20,…,110 ns; each has a wait of 2 and a
	// round trip of the rest, with a reported stage of half the round trip.
	for i := int64(1); i <= 11; i++ {
		base := i * 1000
		root := add(-1, "request", base, base+10*i)
		add(root, "wait", base, base+2)
		rt := add(root, "roundtrip", base+2, base+10*i)
		add(rt, "stage", base+10*i-(10*i-2)/2, base+10*i)
	}
	rows, total, n := budget(spans, "request", 45, 55)
	if n != 3 { // nearest ranks of p45 and p55 of 11 requests: the 5th to the 7th
		t.Errorf("band holds %d requests, want 3", n)
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.SelfMS
	}
	if math.Abs(sum-total) > 1e-12 {
		t.Errorf("rows sum to %v, total says %v", sum, total)
	}
	// The band around the median of 10..110 is centred on 60 ns.
	if math.Abs(total*1e6-60) > 1e-6 {
		t.Errorf("median band mean = %v ns, want 60", total*1e6)
	}
	all, totalAll, nAll := budget(spans, "request", 0, 100)
	if nAll != 11 || math.Abs(totalAll*1e6-60) > 1e-6 {
		t.Errorf("whole-range budget: %d requests, mean %v ns", nAll, totalAll*1e6)
	}
	for _, r := range all {
		if r.Name == "request" && r.SelfMS != 0 {
			t.Errorf("the root is fully covered by its children, self = %v", r.SelfMS)
		}
	}
}

// Reported stages are laid into the end of their parent and clipped.
func TestReportedStages(t *testing.T) {
	tr := newTracer(true)
	t0 := tr.t0
	p := tr.add("roundtrip", -1, 1, t0.Add(100), t0.Add(200))
	tr.reported(p, 1, []string{"ground", "learn", "infer"}, []time.Duration{30, 20, 10})
	s := tr.snapshot()
	if len(s) != 4 {
		t.Fatalf("got %d spans", len(s))
	}
	if s[1].Start != 140 || s[1].End != 170 || s[2].End != 190 || s[3].End != 200 {
		t.Errorf("stages laid out as %+v", s[1:])
	}
	if self := selfTimes(s); self[0] != 40 {
		t.Errorf("parent self time = %d, want 40", self[0])
	}
	// Stages longer than the parent are clipped, never negative self time.
	q := tr.add("short", -1, 2, t0.Add(300), t0.Add(310))
	tr.reported(q, 2, []string{"ground"}, []time.Duration{50})
	s = tr.snapshot()
	if self := selfTimes(s); self[q] != 0 {
		t.Errorf("clipped parent self time = %d, want 0", self[q])
	}
	// A disabled tracer records nothing.
	off := newTracer(false)
	if id := off.begin("x", -1, 0); id != -1 || len(off.snapshot()) != 0 {
		t.Error("disabled tracer recorded a span")
	}
}
