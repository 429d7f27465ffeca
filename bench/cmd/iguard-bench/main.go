// Command iguard-bench runs iGuard's benchmark: one workload, or all of
// them, from a seed. It prints every metric by name with its unit,
// writes a results JSON per workload and a span file per traced run,
// and ends its standard output with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// It exits 1 when any correctness check fails.
//
// Usage:
//
//	go run ./bench/cmd/iguard-bench -workload all -seed 1
//	go run ./bench/cmd/iguard-bench -workload churn-scan -seed 3 -seconds 10 -trace 0
//
// -trace 0 reports the end-to-end metrics, -trace 1 the per-layer
// metrics, and -trace 2 (the default) both.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"iguard/bench"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "input generation seed")
		seconds  = flag.Float64("seconds", 10, "measuring budget per workload run, in seconds")
		trace    = flag.Int("trace", bench.TraceBoth, "0: end-to-end metrics, 1: per-layer metrics, 2: both")
		out      = flag.String("out", "bench/out", "directory for results and span files")
	)
	flag.Parse()
	if *trace < bench.TraceEndToEnd || *trace > bench.TraceBoth || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "iguard-bench: -trace must be 0, 1 or 2 and -seconds positive")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range bench.Workloads() {
			names = append(names, w.Name)
		}
	}
	kinds := []bench.Kind{bench.EndToEnd, bench.PerLayer}
	switch *trace {
	case bench.TraceEndToEnd:
		kinds = kinds[:1]
	case bench.TracePerLayer:
		kinds = kinds[1:]
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}

	opts := bench.Options{Seed: *seed, Seconds: *seconds, Trace: *trace, OutDir: *out, Log: os.Stderr}
	for _, name := range names {
		opts.Workload = name
		res, err := bench.Run(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iguard-bench:", err)
			os.Exit(1)
		}
		path, err := res.WriteFile(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iguard-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("== %s (seed %d): correct=%v attempted=%d failed=%d\n", name, *seed, res.Correct, res.Attempted, res.Failed)
		for _, f := range res.Failures {
			fmt.Printf("   FAILED: %s\n", f)
		}
		for _, m := range res.Reported(kinds...) {
			v := res.Metrics[m]
			line := fmt.Sprintf("   %-34s %14.6g %s", m, v.Value, v.Unit)
			if v.N > 0 {
				line += fmt.Sprintf("  (n=%d)", v.N)
			}
			fmt.Println(line)
			key := m
			if len(names) > 1 {
				key = name + "." + m
			}
			summary.Metrics[key] = value{v.Value, v.Unit}
		}
		fmt.Printf("   results: %s\n", path)
		if res.Spans != "" {
			fmt.Printf("   spans:   %s\n", res.Spans)
		}
		summary.Correct = summary.Correct && res.Correct
		summary.Attempted += res.Attempted
		summary.Failed += res.Failed
	}
	raw, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iguard-bench:", err)
		os.Exit(1)
	}
	fmt.Println(strings.TrimSpace(string(raw)))
	if !summary.Correct {
		os.Exit(1)
	}
}
