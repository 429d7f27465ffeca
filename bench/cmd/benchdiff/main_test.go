package main

import (
	"io"
	"testing"

	"iguard/bench"
)

func TestClassify(t *testing.T) {
	bound := 0.1
	lower := metricSpec{Name: "latency", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "pps", Better: "higher", Bound: &bound}
	noBound := metricSpec{Name: "layer", Better: "lower"}
	steady := []float64{100, 100, 101, 99, 100}
	cases := []struct {
		name   string
		old    []float64
		new    []float64
		spec   metricSpec
		status string
	}{
		{"same", steady, steady, lower, "unchanged"},
		{"within bound", steady, []float64{105, 105, 106, 104, 105}, lower, "unchanged"},
		{"slower latency", steady, []float64{120, 120, 121, 119, 120}, lower, "regressed"},
		{"faster latency", steady, []float64{80, 80, 81, 79, 80}, lower, "improved"},
		{"lower throughput", steady, []float64{80, 80, 81, 79, 80}, higher, "regressed"},
		{"noisy", steady, []float64{60, 90, 120, 150, 180}, lower, "unresolved"},
		{"noisy but all better", []float64{100, 130, 160, 190, 220}, []float64{10, 20, 30, 40, 50}, lower, "improved"},
		{"no bound", steady, []float64{200, 200, 200}, noBound, "info"},
	}
	for _, c := range cases {
		if got, _ := classify(c.old, c.new, c.spec); got != c.status {
			t.Errorf("%s: classify = %s, want %s", c.name, got, c.status)
		}
	}
}

// run is a result holding one metric, with per-pass samples that
// disagree with its reported value.
func run(workload string, value float64) *bench.Result {
	return &bench.Result{Workload: workload, Attempted: 1, Metrics: map[string]bench.Metric{
		"pps": {Value: value, Samples: []float64{value / 2, value * 2, value * 3}},
	}}
}

func TestCompareUsesRunValues(t *testing.T) {
	bound := 0.1
	specs := []metricSpec{{Name: "pps", Better: "higher", Bound: &bound}}
	old := map[string][]*bench.Result{"w": {run("w", 100), run("w", 101)}}
	same := map[string][]*bench.Result{"w": {run("w", 100), run("w", 99)}}
	if code := compare(io.Discard, specs, old, same); code != 0 {
		t.Errorf("same per-run values: exit %d, want 0", code)
	}
	slower := map[string][]*bench.Result{"w": {run("w", 80), run("w", 81)}}
	if code := compare(io.Discard, specs, old, slower); code != 1 {
		t.Errorf("lower per-run values: exit %d, want 1", code)
	}
}

func TestCompareNeedsSeveralRuns(t *testing.T) {
	bound := 0.1
	specs := []metricSpec{{Name: "pps", Better: "higher", Bound: &bound}}
	two := map[string][]*bench.Result{"w": {run("w", 100), run("w", 100)}}
	one := map[string][]*bench.Result{"w": {run("w", 100)}}
	if code := compare(io.Discard, specs, two, one); code != 2 {
		t.Errorf("one new run: exit %d, want 2", code)
	}
}
