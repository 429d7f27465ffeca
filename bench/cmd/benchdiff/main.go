// Command benchdiff compares two sets of iguard-bench results using the
// regression bounds in BENCHMARK.json. It prints one row per workload
// and metric with both sides' median and quartiles, and marks each row
// improved, unchanged, regressed, or unresolved (spread wider than the
// bound). It exits 1 when any row regressed or a workload's failed
// fraction rose, and 2 on bad input.
//
// Each side is a directory of results files or a glob. Every run of a
// workload contributes its reported value, and a side needs at least
// minRuns runs of each workload it shares with the other, so that the
// quartiles measure run-to-run spread. Per-layer rows carry no bound and
// appear wherever both sides recorded the metric (trace 1 or 2 results).
//
// Usage:
//
//	go run ./bench/cmd/benchdiff old/ new/
//	go run ./bench/cmd/benchdiff 'old/*trace1.json' 'new/*trace1.json'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"iguard/bench"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// minRuns is the fewest runs of a workload a side must hold.
const minRuns = 2

func main() {
	config := flag.String("config", "BENCHMARK.json", "benchmark definition holding the bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-config BENCHMARK.json] OLD NEW")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*config)
	if err != nil {
		fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fatal(fmt.Errorf("%s: %w", *config, err))
	}
	specs := append(bf.EndToEnd, bf.PerLayer...)
	oldRuns, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	newRuns, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	if code := compare(os.Stdout, specs, oldRuns, newRuns); code != 0 {
		os.Exit(code)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

// load reads a results file, every results file in a directory, or a
// glob's matches, grouped by workload.
func load(arg string) (map[string][]*bench.Result, error) {
	paths := []string{arg}
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		paths, _ = filepath.Glob(filepath.Join(arg, "*.json"))
	} else if err != nil {
		if paths, err = filepath.Glob(arg); err != nil {
			return nil, err
		}
	}
	out := map[string][]*bench.Result{}
	for _, p := range paths {
		r, err := bench.ReadResult(p)
		if err != nil {
			return nil, err
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no results in %s", arg)
	}
	return out, nil
}

// values collects one side's per-run values of a metric: the value each
// run reported, never its per-pass samples.
func values(runs []*bench.Result, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// failedFrac is a side's failed packets over attempted ones.
func failedFrac(runs []*bench.Result) float64 {
	var failed, attempted int64
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

// compare prints the table and returns the exit code.
func compare(w io.Writer, specs []metricSpec, oldRuns, newRuns map[string][]*bench.Result) int {
	var workloads []string
	for name := range newRuns {
		if _, ok := oldRuns[name]; ok {
			workloads = append(workloads, name)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no workload appears on both sides")
		return 2
	}
	for _, wl := range workloads {
		if len(oldRuns[wl]) < minRuns || len(newRuns[wl]) < minRuns {
			fmt.Fprintf(os.Stderr, "benchdiff: %s has %d old and %d new runs; each side needs at least %d to measure its spread\n",
				wl, len(oldRuns[wl]), len(newRuns[wl]), minRuns)
			return 2
		}
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-32s %-34s %-34s %9s %6s  %s\n", "workload", "metric", "old median [q1 q3]", "new median [q1 q3]", "change", "bound", "status")
	for _, wl := range workloads {
		o, n := oldRuns[wl], newRuns[wl]
		if fo, fn := failedFrac(o), failedFrac(n); fn > fo {
			fmt.Fprintf(w, "%-16s %-32s %-34.6g %-34.6g %9s %6s  regressed\n", wl, "failed_frac", fo, fn, "", "")
			code = 1
		}
		for _, s := range specs {
			ov, nv := values(o, s.Name), values(n, s.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			status, change := classify(ov, nv, s)
			if status == "regressed" {
				code = 1
			}
			bound := "-"
			if s.Bound != nil {
				bound = fmt.Sprintf("%.3g", *s.Bound)
			}
			fmt.Fprintf(w, "%-16s %-32s %-34s %-34s %+8.2f%% %6s  %s\n", wl, s.Name, summary(ov), summary(nv), 100*change, bound, status)
		}
	}
	return code
}

// summary renders a median with its quartiles.
func summary(xs []float64) string {
	q1, q2, q3 := bench.Quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g %.5g]", q2, q1, q3)
}

// classify compares the sides' medians. change is the relative change
// of the median, signed so that positive is worse.
func classify(ov, nv []float64, s metricSpec) (status string, change float64) {
	oq1, om, oq3 := bench.Quartiles(ov)
	nq1, nm, nq3 := bench.Quartiles(nv)
	switch {
	case math.Abs(om) > 0:
		change = (nm - om) / math.Abs(om)
	case math.Abs(nm) > 0:
		change = math.Inf(1)
	}
	lower := strings.EqualFold(s.Better, "lower")
	if !lower {
		change = -change
	}
	if s.Bound == nil {
		return "info", change
	}
	bound := *s.Bound
	spread := 0.0
	if math.Abs(om) > 0 {
		spread = max(spread, (oq3-oq1)/math.Abs(om))
	}
	if math.Abs(nm) > 0 {
		spread = max(spread, (nq3-nq1)/math.Abs(nm))
	}
	if spread > bound {
		// Too noisy to tell, unless every new value beats every old one.
		if allBetter(ov, nv, lower) {
			return "improved", change
		}
		return "unresolved", change
	}
	switch {
	case change > bound:
		return "regressed", change
	case change < -bound:
		return "improved", change
	}
	return "unchanged", change
}

// allBetter reports whether every new value beats every old value.
func allBetter(ov, nv []float64, lower bool) bool {
	for _, o := range ov {
		for _, n := range nv {
			if (lower && n >= o) || (!lower && n <= o) {
				return false
			}
		}
	}
	return true
}
