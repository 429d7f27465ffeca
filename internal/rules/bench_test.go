package rules

import (
	"fmt"
	"testing"

	"iguard/internal/mathx"
)

// benchCompiled builds a compiled whitelist of count random 4-feature
// rules at the given quantiser width, plus a deterministic batch of
// quantised probe vectors (a mix of hits and misses). At 12 bits it is
// the PL-table shape the serving benchmarks replay against, with a
// direct code table per feature; at 20 bits (the library default and
// the bench model's width) Match locates features by float thresholds.
func benchCompiled(count, bits int) (*CompiledRuleSet, [][]uint64) {
	r := mathx.NewRand(int64(count))
	c := Compile(randomRuleSet(r, 4, count), quantizerFor(4, bits))
	probes := make([][]uint64, 256)
	levels := int(c.Quantizer.Levels(0))
	for i := range probes {
		codes := make([]uint64, 4)
		for d := range codes {
			codes[d] = uint64(r.Intn(levels))
		}
		probes[i] = codes
	}
	return c, probes
}

// BenchmarkMatch contrasts the bit-vector matcher against the linear
// reference scan across rule counts. The linear numbers are the
// pre-index baseline (the scan is byte-identical to the old
// MatchCodes); the bitvector numbers are what ships.
func BenchmarkMatch(b *testing.B) {
	for _, count := range []int{16, 128, 1024} {
		c, probes := benchCompiled(count, 12)
		if c.MatcherKind() != "bitvector" {
			b.Fatalf("rules=%d compiled without the bit-vector index", count)
		}
		b.Run(fmt.Sprintf("impl=linear/rules=%d", count), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.matchCodesLinear(probes[i%len(probes)])
			}
		})
		b.Run(fmt.Sprintf("impl=bitvector/rules=%d", count), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.MatchCodes(probes[i%len(probes)])
			}
		})
	}
}

// BenchmarkMatchFloat measures the full float→verdict path — what the
// switch pipeline's classify arms pay per packet. At 12 bits Match
// quantises each feature and loads its direct code table; at 20 bits it
// binary-searches each feature's float thresholds.
func BenchmarkMatchFloat(b *testing.B) {
	for _, bits := range []int{12, 20} {
		for _, count := range []int{16, 128, 1024} {
			c, _ := benchCompiled(count, bits)
			r := mathx.NewRand(9)
			xs := make([][]float64, 256)
			for i := range xs {
				x := make([]float64, 4)
				for d := range x {
					x[d] = r.Float64() * 100
				}
				xs[i] = x
			}
			b.Run(fmt.Sprintf("bits=%d/rules=%d", bits, count), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.Match(xs[i%len(xs)])
				}
			})
		}
	}
}

// BenchmarkCompile tracks rule-compilation cost (quantise, dedup,
// index build) — the control-plane price paid per whitelist hot-swap.
// At 12 bits the index builds direct code tables; at 20 bits it
// searches out each interval start's float threshold instead.
func BenchmarkCompile(b *testing.B) {
	for _, bits := range []int{12, 20} {
		for _, count := range []int{16, 128, 1024} {
			r := mathx.NewRand(int64(count))
			rs := randomRuleSet(r, 4, count)
			q := quantizerFor(4, bits)
			b.Run(fmt.Sprintf("bits=%d/rules=%d", bits, count), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Compile(rs, q)
				}
			})
		}
	}
}

var mergeSink []Rule

// BenchmarkMergeAdjacent times the adjacent-cell merge, the bulk of
// rule-set generation, on a seeded 13-dimension grid of about 2.4k
// cells (mergeTestRules), the size of the largest merge in training
// the repo benchmark's model. Each op merges a fresh copy of the input.
func BenchmarkMergeAdjacent(b *testing.B) {
	in := mergeTestRules(mathx.NewRand(13), 13, 2300)
	buf := make([]Rule, len(in))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, in)
		mergeSink = MergeAdjacent(buf)
	}
	b.ReportMetric(float64(len(in)), "cells")
}
