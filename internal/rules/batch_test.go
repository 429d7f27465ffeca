package rules

import (
	"fmt"
	"testing"

	"iguard/internal/mathx"
)

// columnsOf transposes row-major code vectors into the feature-major
// layout MatchColumns consumes.
func columnsOf(rows [][]uint64, dims int) []uint64 {
	n := len(rows)
	cols := make([]uint64, dims*n)
	for i, r := range rows {
		for f := 0; f < dims; f++ {
			cols[f*n+i] = r[f]
		}
	}
	return cols
}

// TestMatchColumnsMatchesMatchCodes is the batch matcher's differential
// property test: at every bit width (direct-table and binary-search
// interval location), dimensionality, and rule count — including >64
// rules, where the verdict spans several bitmap words — MatchColumns
// over a batch of random and boundary code vectors must agree column
// for column with MatchCodes.
func TestMatchColumnsMatchesMatchCodes(t *testing.T) {
	for _, bits := range []int{1, 4, 12, 17} {
		for _, dim := range []int{1, 4, 13} {
			// 600 rules span several bitmap words.
			for _, count := range []int{3, 60, 150, 600} {
				t.Run(fmt.Sprintf("bits=%d/dim=%d/rules=%d", bits, dim, count), func(t *testing.T) {
					r := mathx.NewRand(int64(bits*101 + dim*13 + count))
					c := Compile(randomRuleSet(r, dim, count), quantizerFor(dim, bits))
					levels := c.Quantizer.Levels(0)
					rows := make([][]uint64, 0, 400)
					for trial := 0; trial < 300; trial++ {
						codes := make([]uint64, dim)
						for i := range codes {
							codes[i] = uint64(r.Intn(int(levels)))
						}
						rows = append(rows, codes)
					}
					// Boundary columns: rule edges and out-of-domain
					// codes, the same surface the single-vector
					// differential test probes.
					for _, rule := range c.Rules {
						codes := make([]uint64, dim)
						for i, rg := range rule.Ranges {
							codes[i] = rg.Lo
						}
						rows = append(rows, codes)
						codes2 := make([]uint64, dim)
						for i, rg := range rule.Ranges {
							codes2[i] = rg.Hi
						}
						rows = append(rows, codes2)
					}
					oob := make([]uint64, dim)
					for i := range oob {
						oob[i] = levels + 7
					}
					rows = append(rows, oob)

					var scratch BatchScratch
					got := make([]int, len(rows))
					c.MatchColumns(got, columnsOf(rows, dim), len(rows), len(rows), &scratch)
					for i, codes := range rows {
						if want := c.MatchCodes(codes); got[i] != want {
							t.Fatalf("column %d (%v): MatchColumns = %d, MatchCodes = %d", i, codes, got[i], want)
						}
					}
				})
			}
		}
	}
}

// TestMatchColumnsLinearFallback pins the gather fallback: a
// hand-assembled set (no bit-vector index) must answer batches through
// the linear scan with the same verdicts as per-vector MatchCodes.
func TestMatchColumnsLinearFallback(t *testing.T) {
	q := quantizerFor(2, 8)
	c := &CompiledRuleSet{
		Quantizer:    q,
		DefaultLabel: 1,
		Rules: []TCAMRule{
			{Ranges: []IntRange{{Lo: 10, Hi: 20}, {Lo: 0, Hi: 255}}},
			{Ranges: []IntRange{{Lo: 100, Hi: 140}, {Lo: 30, Hi: 40}}},
		},
	}
	if c.MatcherKind() != "linear" {
		t.Fatalf("matcher kind = %q, want linear", c.MatcherKind())
	}
	rows := [][]uint64{{15, 7}, {9, 7}, {120, 35}, {120, 50}, {255, 255}}
	got := make([]int, len(rows))
	var scratch BatchScratch
	c.MatchColumns(got, columnsOf(rows, 2), len(rows), len(rows), &scratch)
	for i, codes := range rows {
		if want := c.MatchCodes(codes); got[i] != want {
			t.Fatalf("column %d (%v): MatchColumns = %d, MatchCodes = %d", i, codes, got[i], want)
		}
	}
}

// TestMatchColumnsAllocationFree pins the batch match at zero
// allocations: the column gather lives on the stack.
func TestMatchColumnsAllocationFree(t *testing.T) {
	r := mathx.NewRand(5)
	c := Compile(randomRuleSet(r, 4, 120), quantizerFor(4, 12))
	const n = 64
	codes := make([]uint64, 4*n)
	for i := range codes {
		codes[i] = uint64(r.Intn(1 << 12))
	}
	dst := make([]int, n)
	var scratch BatchScratch
	if allocs := testing.AllocsPerRun(100, func() {
		c.MatchColumns(dst, codes, n, n, &scratch)
	}); allocs != 0 {
		t.Errorf("MatchColumns allocs/op = %v, want 0", allocs)
	}
}

// TestEncodeColumnInto pins the feature-major quantiser against the
// per-vector encoder.
func TestEncodeColumnInto(t *testing.T) {
	q := quantizerFor(3, 10)
	vals := []float64{-5, 0, 12.5, 99.9, 100, 250}
	dst := make([]uint64, len(vals))
	for f := 0; f < 3; f++ {
		q.EncodeColumnInto(dst, f, vals)
		for j, v := range vals {
			if want := q.Encode(f, v); dst[j] != want {
				t.Fatalf("feature %d value %v: column encode %d, Encode %d", f, v, dst[j], want)
			}
		}
	}
}
