package rules

import (
	"fmt"
	"testing"

	"iguard/internal/mathx"
)

// benchCompiled builds a compiled whitelist of count random 4-feature
// rules at 12-bit quantisation — the PL-table shape the serving
// benchmarks replay against — plus a deterministic batch of quantised
// probe vectors (a mix of hits and misses).
func benchCompiled(count int) (*CompiledRuleSet, [][]uint64) {
	r := mathx.NewRand(int64(count))
	c := Compile(randomRuleSet(r, 4, count), quantizerFor(4, 12))
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
		c, probes := benchCompiled(count)
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

// BenchmarkMatchFloat measures the full float→verdict path (quantise
// into a stack buffer, then the bit-vector match) — what the switch
// pipeline's classify arms pay per packet.
func BenchmarkMatchFloat(b *testing.B) {
	for _, count := range []int{16, 128, 1024} {
		c, _ := benchCompiled(count)
		r := mathx.NewRand(9)
		xs := make([][]float64, 256)
		for i := range xs {
			x := make([]float64, 4)
			for d := range x {
				x[d] = r.Float64() * 100
			}
			xs[i] = x
		}
		b.Run(fmt.Sprintf("rules=%d", count), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Match(xs[i%len(xs)])
			}
		})
	}
}

// BenchmarkCompile tracks rule-compilation cost (quantise, dedup,
// index build) — the control-plane price paid per whitelist hot-swap.
func BenchmarkCompile(b *testing.B) {
	for _, count := range []int{128, 1024} {
		r := mathx.NewRand(int64(count))
		rs := randomRuleSet(r, 4, count)
		q := quantizerFor(4, 12)
		b.Run(fmt.Sprintf("rules=%d", count), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Compile(rs, q)
			}
		})
	}
}
