package rules

import (
	"math"
	"testing"

	"iguard/internal/mathx"
)

// fuzzMatchSet compiles a random whitelist over three features whose
// quantiser ranges come from the fuzzer: feature 0 spans [lo, hi] and
// feature 1 the reverse, [hi, lo] (so one of the two has a span ≤ 0
// unless lo == hi, when both do), both at width bits; feature 2 spans
// [0, 100], at 12 bits with a direct code table for an even seed, so
// that Match quantises the whole vector, and at width bits for an odd
// one, so that above 16 bits Match takes the float walk. Rule edges
// are drawn around each feature's range, a little past both ends. size
// picks the rule count: 1–64 rules (one bitmap word) at 0, 65–256 at
// 1, and 257–512 at 2.
func fuzzMatchSet(seed int64, bits, size int, lo, hi float64) *CompiledRuleSet {
	q := &Quantizer{
		Min:  []float64{lo, hi, 0},
		Max:  []float64{hi, lo, 100},
		Bits: []int{bits, bits, 12},
	}
	if seed%2 != 0 {
		q.Bits[2] = bits
	}
	r := mathx.NewRand(seed)
	rs := &RuleSet{Dim: 3, DefaultLabel: 1}
	n := 1 + r.Intn(64)
	switch size {
	case 1:
		n = 65 + r.Intn(192)
	case 2:
		n = 257 + r.Intn(256)
	}
	for ; n > 0; n-- {
		box := make(Box, 3)
		for d := range box {
			a, b := r.Float64()*1.2-0.1, r.Float64()*1.2-0.1
			span := q.Max[d] - q.Min[d]
			box[d] = Interval{Lo: q.Min[d] + math.Min(a, b)*span, Hi: q.Min[d] + math.Max(a, b)*span}
		}
		rs.Rules = append(rs.Rules, Rule{Box: box, Label: 0})
	}
	return Compile(rs, q)
}

// FuzzMatchFloat pins Match, which locates the features of a set whose
// features are all wider than 16 bits by float thresholds instead of
// quantising them, to MatchCodes on the quantised vector, at widths 4–24 on fuzzed quantiser ranges
// (spans ≤ 0 included), with sets of one bitmap word and of several
// (bits ≥ 21 selects more than 64 rules, bits ≥ 42 more than 256). It
// probes the fuzzed values, ±Inf, every threshold with its Nextafter
// neighbours, and the bucket edges of the direct-table feature; checks
// that each threshold is the least value Encode maps to its interval
// start; and pins a NaN in any feature to the default label, which
// Match guarantees on every platform, whatever the features before it
// hold — including values whose intervals already leave no rule.
func FuzzMatchFloat(f *testing.F) {
	for _, s := range []struct {
		seed    int64
		bits    uint8
		lo, hi  float64
		x, y, z float64
	}{
		{1, 16, 0, 100, 37.5, 99.9999, 0},
		{2, 0, 0, 100, -5, 105, 50},
		{3, 13, 5, 5, 5, 4.9, 5.1},
		{4, 20, 10, -3, 0, 7, 100},
		{5, 7, -1, 1, 0, -1e-300, 1e-300},
		{6, 18, 1e15, 1e15 + 1, 1e15 + 0.5, 1e15, 2e15},
		{7, 20, -1e300, 1e300, 0, -1e300, 1e300},
		{8, 19, 0, 1e-300, 0, 5e-324, 1},
		{9, 21 + 16, 0, 100, 1e300, -1e300, math.NaN()},
		{10, 21 + 3, 0, 100, 99, 1, 50},
		{11, 42 + 16, 0, 100, 50, 150, -50},
		{12, 42 + 8, -5, 5, 0, math.NaN(), 6},
	} {
		f.Add(s.seed, s.bits, s.lo, s.hi, s.x, s.y, s.z)
	}
	f.Fuzz(func(t *testing.T, seed int64, bits uint8, lo, hi, x, y, z float64) {
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
			t.Skip("quantiser ranges are finite")
		}
		c := fuzzMatchSet(seed, 4+int(bits)%21, int(bits)/21%3, lo, hi)
		if c.bv == nil {
			t.Skip("no rule survived quantisation")
		}
		q := c.Quantizer
		base := []float64{x, y, z}
		check := func(i int, v float64) {
			t.Helper()
			vec := append([]float64(nil), base...)
			vec[i] = v
			for j, w := range vec {
				if math.IsNaN(w) {
					// Probe the other features' values with a finite one.
					vec[j] = q.Min[j]
				}
			}
			got, want := c.Match(vec), c.MatchCodes(q.EncodeVector(vec))
			if got != want {
				t.Fatalf("Match(%v) = %d, MatchCodes(%v) = %d", vec, got, q.EncodeVector(vec), want)
			}
			for j := i + 1; j < len(vec); j++ {
				late := append([]float64(nil), vec...)
				late[j] = math.NaN()
				if got := c.Match(late); got != c.DefaultLabel {
					t.Fatalf("Match(%v) = %d, want the default label %d", late, got, c.DefaultLabel)
				}
			}
			vec[i] = math.NaN()
			if got := c.Match(vec); got != c.DefaultLabel {
				t.Fatalf("Match(%v) = %d, want the default label %d", vec, got, c.DefaultLabel)
			}
		}
		for i := range c.bv.feats {
			f := &c.bv.feats[i]
			span := q.Max[i] - q.Min[i]
			if q.Bits[i] > 16 && !math.IsInf(span, 0) && f.thresholds == nil {
				t.Fatalf("feature %d at %d bits has no float thresholds", i, q.Bits[i])
			}
			for _, v := range []float64{x, y, z, math.Inf(-1), math.Inf(1), q.Min[i], q.Max[i]} {
				check(i, v)
			}
			for j, k := range f.thresholds {
				th := orderedFloat(k)
				if j > 0 {
					below := math.Nextafter(th, math.Inf(-1))
					if q.Encode(i, th) < f.bounds[j] || q.Encode(i, below) >= f.bounds[j] {
						t.Fatalf("feature %d: threshold %v of start %d is not the least value reaching it (Encode %d, below %d)",
							i, th, f.bounds[j], q.Encode(i, th), q.Encode(i, below))
					}
				}
				for _, v := range []float64{th, math.Nextafter(th, math.Inf(-1)), math.Nextafter(th, math.Inf(1))} {
					check(i, v)
				}
			}
			if f.thresholds == nil {
				for _, b := range f.bounds {
					e := q.Decode(i, b)
					for _, v := range []float64{e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1))} {
						check(i, v)
					}
				}
			}
		}
	})
}
