package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {95, 4.8},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestStepP95(t *testing.T) {
	// Three phases of four steps; phase 1 is noisy on every step, and the
	// per-step medians are 1, 2, 3, 10.
	phases := [][]float64{{1, 2, 3, 10}, {50, 60, 70, 80}, {1, 2, 3, 10}}
	if got, want := stepP95(phases), percentile([]float64{1, 2, 3, 10}, 95); got != want {
		t.Errorf("stepP95 = %v, want %v", got, want)
	}
	if got, want := stepP95([][]float64{{4, 1, 3, 2}}), percentile([]float64{1, 2, 3, 4}, 95); got != want {
		t.Errorf("one phase: stepP95 = %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 50, Parent: 0},  // overlaps a: union 10..50
		{Name: "c", Start: 90, End: 120, Parent: 0}, // only 90..100 inside root
		{Name: "leaf", Start: 15, End: 20, Parent: 1},
	}
	want := []int64{100 - 40 - 10, 30 - 5, 20, 30, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	sum := summarize(append(spans, span{Name: "open", Start: 5, End: -1, Parent: -1}))
	if st := sum["root"]; st.count != 1 || st.total != 100 || st.self != 50 {
		t.Errorf("summary of root = %+v", st)
	}
	if _, ok := sum["open"]; ok {
		t.Error("an unclosed span was summarized")
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 1)
	if id != -1 || tr.end(id) != 0 {
		t.Error("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("root", -1, 7)
	child := tr.begin("child", root, 7)
	tr.end(child)
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != 0 || s[1].Req != 7 || s[0].End < s[1].End {
		t.Errorf("spans = %+v", s)
	}
}
