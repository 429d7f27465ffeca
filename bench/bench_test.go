package bench

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the smoke test
// checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeAllWorkloads runs every workload at a tiny scale through the
// same code the benchmark runs, and checks that the correctness gate
// passes and that every metric BENCHMARK.json names is reported with
// its unit (end-to-end metrics also non-zero).
func TestSmokeAllWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(Workloads()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(Workloads()))
	}
	// BENCHMARK.json keeps each workload's offered rates in its why.
	for i, w := range Workloads() {
		if got := bf.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the benchmark's %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		for _, n := range w.Nodes {
			if rate := strconv.FormatFloat(n.Rate/1e6, 'g', -1, 64) + " Mpps"; !strings.Contains(w.Why, rate) {
				t.Errorf("workload %s: why does not state the offered rate %s", w.Name, rate)
			}
		}
	}
	// The command prints exactly the registry's metrics of a kind, so
	// each BENCHMARK.json list must be exactly that kind's registry.
	listed := map[string]Kind{}
	for _, m := range bf.EndToEnd {
		listed[m.Name] = EndToEnd
	}
	for _, m := range bf.PerLayer {
		listed[m.Name] = PerLayer
	}
	if len(listed) != len(Metrics) {
		t.Errorf("BENCHMARK.json lists %d metrics, the registry %d", len(listed), len(Metrics))
	}
	for _, d := range Metrics {
		if k, ok := listed[d.Name]; !ok || k != d.Kind {
			t.Errorf("metric %s: kind %d in the registry, listed=%v kind %d in BENCHMARK.json", d.Name, d.Kind, ok, k)
		}
	}
	model, err := TrainModel()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := Run(Options{Workload: w.Name, Seed: 7, Seconds: 0.01, Trace: TraceBoth, Scale: 0.01, Model: model})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d: %v", res.Correct, res.Failed, res.Attempted, res.Failures)
			}
			for _, m := range bf.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v, want unit %s", m.Name, got, m.Unit)
				} else if got.Value == 0 {
					t.Errorf("end-to-end %s reads 0", m.Name)
				}
			}
			for _, m := range bf.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
		})
	}
}

// TestQuartilesMatchPython pins Quartiles to CPython's
// statistics.quantiles(xs, n=4) on small inputs, extrapolation included.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 1, 7, 3, 9, 2, 8, 4, 6, 5}, 2.75, 5.5, 8.25},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
