package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Metric is one reported value with its unit. Samples, when present,
// are the per-pass (or per-repetition) values of the same quantity, kept
// to show how passes varied; Value is not always their median (a pooled
// percentile or a total rate, for example). N is the sample count behind
// a pooled percentile.
type Metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// Host records the machine a run measured.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Note       string `json:"note"`
}

// Settings records how a run was driven.
type Settings struct {
	Seed         int64     `json:"seed"`
	Seconds      float64   `json:"seconds"`
	Scale        float64   `json:"scale"`
	Trace        int       `json:"trace"`
	ClosedPasses int       `json:"closed_passes"`
	OpenPasses   int       `json:"open_passes"`
	ClosedS      float64   `json:"closed_s"`
	OpenS        float64   `json:"open_s"`
	RunS         float64   `json:"run_s"`
	OfferedPPS   []float64 `json:"offered_pps"`
	Shards       []int     `json:"shards"`
	Packets      []int     `json:"packets"`
	Input        string    `json:"input"`
	Transport    string    `json:"transport,omitempty"`
	Serve        string    `json:"serve"`
}

// Result is one workload run.
type Result struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	Layers    []LayerTime       `json:"span_self_times,omitempty"`
	Spans     string            `json:"span_file,omitempty"`
	Host      Host              `json:"host"`
	Settings  Settings          `json:"settings"`
}

func (r *Result) set(name string, v float64, samples []float64, n int) {
	d, ok := metricDef(name)
	if !ok {
		panic("bench: unregistered metric " + name)
	}
	r.Metrics[name] = Metric{Value: v, Unit: d.Unit, N: n, Samples: samples}
}

func (r *Result) fail(failed int64, format string, args ...any) {
	r.Failed += failed
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// Reported returns the registered metrics of the given kinds that the
// run produced, in registry order.
func (r *Result) Reported(kinds ...Kind) []string {
	var out []string
	for _, d := range Metrics {
		for _, k := range kinds {
			if d.Kind == k {
				if _, ok := r.Metrics[d.Name]; ok {
					out = append(out, d.Name)
				}
			}
		}
	}
	return out
}

// WriteFile writes the result as indented JSON into dir, named after
// the workload, seed and trace mode, and returns the path.
func (r *Result) WriteFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("bench: results dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Settings.Seed, r.Settings.Trace))
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("bench: write results: %w", err)
	}
	return path, nil
}

// ReadResult loads a results file.
func ReadResult(path string) (*Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// hostInfo describes the machine. The CPU model comes from
// /proc/cpuinfo where it exists.
func hostInfo() Host {
	h := Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	h.Note = fmt.Sprintf("measured on %d CPUs; a host this small gives one operating point, not a multi-core scaling curve", h.NumCPU)
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
