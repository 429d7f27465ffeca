package rules

import (
	"fmt"
	"math"
	"slices"
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
// stored back to back. At 12 bits MatchCodes looks codes up in a
// direct table per feature; at 20 bits (the library default and the
// bench model's width) it binary-searches interval bounds.
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
// switch pipeline's classify arms pay per packet — over streams of
// benchProbes seeded float vectors. The bits=/rules= cases draw mixed
// 4-feature vectors; at 12 bits Match quantises each feature and loads
// its direct code table, at 20 bits it searches each feature's float
// thresholds. The pl/ and fl/ cases are the repo benchmark model's PL
// and FL shapes (4 features and 42 rules, one bitmap word; 13 features
// and 79 rules, two words; see benchModelStreams), each split into a
// stream of whitelisted vectors, which locate and AND every feature,
// and a stream of misses, which stop at the first feature whose bitmap
// word leaves no rule.
func BenchmarkMatchFloat(b *testing.B) {
	run := func(b *testing.B, c *CompiledRuleSet, xs []float64, dims int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := dims * (i % benchProbes)
			c.Match(xs[j : j+dims])
		}
	}
	for _, bits := range []int{12, 20} {
		for _, count := range []int{16, 128, 1024} {
			c, _ := benchCompiled(count, bits)
			r := mathx.NewRand(9)
			xs := make([]float64, 4*benchProbes)
			for i := range xs {
				xs[i] = r.Float64() * 100
			}
			b.Run(fmt.Sprintf("bits=%d/rules=%d", bits, count), func(b *testing.B) {
				run(b, c, xs, 4)
			})
		}
	}
	for _, shape := range []struct {
		name        string
		dims, count int
	}{{"pl", 4, 42}, {"fl", 13, 79}} {
		c, hits, misses := benchModelStreams(b, shape.dims, shape.count)
		b.Run(shape.name+"/stream=hit", func(b *testing.B) { run(b, c, hits, shape.dims) })
		b.Run(shape.name+"/stream=miss", func(b *testing.B) { run(b, c, misses, shape.dims) })
	}
}

// benchModelStreams compiles a whitelist of one of the repo benchmark
// model's shapes — dims features at 20 bits and count rules, with a
// handful of elementary intervals per feature, because every rule edge
// of a feature is one of a few cut points, as the merged grid cells of
// a trained model's rules are — and draws two streams of benchProbes
// vectors from it: hits, each a uniform point inside a random rule's
// box, and misses, uniform points of the domain that no rule
// whitelists.
func benchModelStreams(tb testing.TB, dims, count int) (c *CompiledRuleSet, hits, misses []float64) {
	r := mathx.NewRand(int64(dims))
	cuts := make([][]float64, dims)
	for d := range cuts {
		cuts[d] = []float64{0, 100}
		for n := 2 + r.Intn(8); n > 0; n-- {
			cuts[d] = append(cuts[d], r.Float64()*100)
		}
		slices.Sort(cuts[d])
	}
	rs := &RuleSet{Dim: dims, DefaultLabel: 1}
	for len(rs.Rules) < count {
		box := make(Box, dims)
		for d, cs := range cuts {
			lo := r.Intn(len(cs) - 1)
			hi := lo + 1 + r.Intn(len(cs)-1-lo)
			box[d] = Interval{Lo: cs[lo], Hi: math.Nextafter(cs[hi], 0)}
		}
		rs.Rules = append(rs.Rules, Rule{Box: box, Label: 0})
	}
	c = Compile(rs, quantizerFor(dims, 20))
	if w := c.bv.words; w != (count+63)/64 {
		tb.Fatalf("%d rules compiled to %d bitmap words", count, w)
	}
	hits = make([]float64, 0, dims*benchProbes)
	misses = make([]float64, 0, dims*benchProbes)
	x := make([]float64, dims)
	for len(hits) < cap(hits) {
		box := rs.Rules[r.Intn(len(rs.Rules))].Box
		for d, iv := range box {
			x[d] = iv.Lo + r.Float64()*(iv.Hi-iv.Lo)
		}
		if c.Match(x) != 0 {
			continue
		}
		hits = append(hits, x...)
	}
	for len(misses) < cap(misses) {
		for d := range x {
			x[d] = r.Float64() * 100
		}
		if c.Match(x) == 0 {
			continue
		}
		misses = append(misses, x...)
	}
	return c, hits, misses
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
// rule-set generation, on seeded 13-dimension grids (mergeTestRules)
// of the two sizes the repo benchmark's model merges in training:
// about 2.4k cells, the guard forest's FL set, and about 5.4k, the
// switch iForest's set. Each op merges a fresh copy of the input.
func BenchmarkMergeAdjacent(b *testing.B) {
	for _, shape := range []struct {
		seed int64
		n    int
	}{{13, 2300}, {54, 5150}} {
		in := mergeTestRules(mathx.NewRand(shape.seed), 13, shape.n)
		buf := make([]Rule, len(in))
		b.Run(fmt.Sprintf("cells=%d", len(in)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				mergeSink = MergeAdjacent(buf)
			}
		})
	}
}
