package rules

import (
	"fmt"
	"testing"

	"iguard/internal/mathx"
)

// benchProbes is how many probe vectors the match benchmarks draw. A
// stream this long does not repeat within any window the branch
// predictor can learn, so a data-dependent search pays for its
// mispredicts as it would on live traffic; a short cycle of probes
// would flatter branchy searches.
const benchProbes = 1 << 16

// benchCompiled builds a compiled whitelist of count random 4-feature
// rules at the given quantiser width, plus a deterministic stream of
// benchProbes quantised probe vectors (a mix of hits and misses),
// stored back to back. At 12 bits it is the PL-table shape the serving
// benchmarks replay against, with a direct code table per feature; at
// 20 bits (the library default and the bench model's width) Match
// locates features by float thresholds.
func benchCompiled(count, bits int) (*CompiledRuleSet, []uint64) {
	r := mathx.NewRand(int64(count))
	c := Compile(randomRuleSet(r, 4, count), quantizerFor(4, bits))
	levels := int(c.Quantizer.Levels(0))
	probes := make([]uint64, 4*benchProbes)
	for i := range probes {
		probes[i] = uint64(r.Intn(levels))
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
				j := 4 * (i % benchProbes)
				c.matchCodesLinear(probes[j : j+4])
			}
		})
		b.Run(fmt.Sprintf("impl=bitvector/rules=%d", count), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := 4 * (i % benchProbes)
				c.MatchCodes(probes[j : j+4])
			}
		})
	}
}

// BenchmarkMatchFloat measures the full float→verdict path — what the
// switch pipeline's classify arms pay per packet — over a stream of
// benchProbes seeded float vectors. At 12 bits Match quantises each
// feature and loads its direct code table; at 20 bits it searches each
// feature's float thresholds.
func BenchmarkMatchFloat(b *testing.B) {
	for _, bits := range []int{12, 20} {
		for _, count := range []int{16, 128, 1024} {
			c, _ := benchCompiled(count, bits)
			r := mathx.NewRand(9)
			xs := make([]float64, 4*benchProbes)
			for i := range xs {
				xs[i] = r.Float64() * 100
			}
			b.Run(fmt.Sprintf("bits=%d/rules=%d", bits, count), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					j := 4 * (i % benchProbes)
					c.Match(xs[j : j+4])
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
