package rules

import (
	"fmt"
	"math/rand"
	"testing"

	"iguard/internal/mathx"
)

// randomRuleSet builds a whitelist of count random boxes over dim
// features spanning [0, 100) each, with a few exact duplicates and
// full-range fields mixed in to exercise dedup and wildcard handling.
func randomRuleSet(r *rand.Rand, dim, count int) *RuleSet {
	rs := &RuleSet{Dim: dim, DefaultLabel: 1}
	for i := 0; i < count; i++ {
		box := make(Box, dim)
		for d := range box {
			if r.Float64() < 0.1 {
				box[d] = Interval{Lo: 0, Hi: 100}
				continue
			}
			lo := r.Float64() * 95
			box[d] = Interval{Lo: lo, Hi: lo + 0.5 + r.Float64()*30}
		}
		rs.Rules = append(rs.Rules, Rule{Box: box, Label: 0})
		if i%7 == 0 {
			rs.Rules = append(rs.Rules, Rule{Box: box.Clone(), Label: 0})
		}
	}
	return rs
}

// quantizerFor returns the [0,100)^dim quantizer at the given width.
func quantizerFor(dim, bits int) *Quantizer {
	lo, hi := make([]float64, dim), make([]float64, dim)
	for i := range hi {
		hi[i] = 100
	}
	return NewQuantizer(lo, hi, bits)
}

// TestMatchCodesBitvectorMatchesLinear is the differential property
// test of the bit-vector matcher: at every quantizer bit width —
// including widths past the direct-table cap, which take the
// binary-search interval location path — random and boundary code
// vectors must produce verdicts byte-identical to the linear scan. The
// rules= cases compile sets of more than 64 and more than 256 rules,
// whose bitmaps span several words, and every case also probes vectors
// whose first feature misses every rule and whose last feature holds
// an out-of-domain code, which the walk never reaches.
func TestMatchCodesBitvectorMatchesLinear(t *testing.T) {
	for _, bits := range []int{1, 2, 4, 8, 12, 17, 20} {
		for _, dim := range []int{1, 4, 13} {
			t.Run(fmt.Sprintf("bits=%d/dim=%d", bits, dim), func(t *testing.T) {
				r := mathx.NewRand(int64(bits*31 + dim))
				checkBitvectorMatchesLinear(t, r, Compile(randomRuleSet(r, dim, 60), quantizerFor(dim, bits)))
			})
		}
	}
	for _, bits := range []int{12, 20} {
		for _, dim := range []int{4, 13} {
			for _, count := range []int{100, 300} {
				t.Run(fmt.Sprintf("bits=%d/dim=%d/rules=%d", bits, dim, count), func(t *testing.T) {
					r := mathx.NewRand(int64(bits*31 + dim + count))
					c := Compile(randomRuleSet(r, dim, count), quantizerFor(dim, bits))
					if n, atLeast := len(c.Rules), map[int]int{100: 64, 300: 256}[count]; n <= atLeast {
						t.Fatalf("%d rules survived compilation, want more than %d", n, atLeast)
					}
					checkBitvectorMatchesLinear(t, r, c)
				})
			}
		}
	}
}

// checkBitvectorMatchesLinear drives c's MatchCodes against its linear
// scan with random interior codes, boundary codes, and vectors that
// die at the first feature before an out-of-domain last code.
func checkBitvectorMatchesLinear(t *testing.T, r *rand.Rand, c *CompiledRuleSet) {
	t.Helper()
	if c.bv == nil && len(c.Rules) > 0 {
		t.Fatal("Compile did not build the bit-vector index")
	}
	dim := len(c.Quantizer.Bits)
	check := func(codes []uint64) {
		t.Helper()
		got, want := c.MatchCodes(codes), c.matchCodesLinear(codes)
		if got != want {
			t.Fatalf("MatchCodes(%v) = %d, linear scan says %d", codes, got, want)
		}
	}
	levels := c.Quantizer.Levels(0)
	// Random interior codes.
	codes := make([]uint64, dim)
	for trial := 0; trial < 300; trial++ {
		for i := range codes {
			codes[i] = uint64(r.Intn(int(levels)))
		}
		check(codes)
	}
	// Boundary codes: every rule edge, its neighbours, and
	// the domain extremes — the off-by-one surface where a
	// crack between the two matchers would hide.
	edges := []uint64{0, levels - 1, levels, levels + 3}
	for _, rule := range c.Rules {
		for _, rg := range rule.Ranges {
			edges = append(edges, rg.Lo, rg.Hi, rg.Hi+1)
			if rg.Lo > 0 {
				edges = append(edges, rg.Lo-1)
			}
		}
	}
	for trial := 0; trial < 600; trial++ {
		for i := range codes {
			codes[i] = edges[r.Intn(len(edges))]
		}
		check(codes)
	}
	// A first code no rule covers empties the accumulator at once; an
	// out-of-domain code after it must not change the verdict.
	for _, first := range edges {
		covered := false
		for _, rule := range c.Rules {
			if rg := rule.Ranges[0]; first >= rg.Lo && first <= rg.Hi {
				covered = true
				break
			}
		}
		if covered || first >= levels {
			continue
		}
		for i := range codes {
			codes[i] = uint64(r.Intn(int(levels)))
		}
		codes[0], codes[dim-1] = first, levels+uint64(r.Intn(4))
		check(codes)
		if got := c.MatchCodes(codes); got != c.DefaultLabel {
			t.Fatalf("MatchCodes(%v) = %d, want the default label", codes, got)
		}
	}
}

// TestMatchVariantsAgree pins Match, MatchCodes and the linear oracle
// to one verdict on float inputs straddling rule edges.
func TestMatchVariantsAgree(t *testing.T) {
	r := mathx.NewRand(5)
	c := Compile(randomRuleSet(r, 4, 40), quantizerFor(4, 10))
	codes := make([]uint64, 4)
	for trial := 0; trial < 500; trial++ {
		x := make([]float64, 4)
		for i := range x {
			x[i] = r.Float64()*110 - 5 // includes out-of-range values
		}
		want := c.Match(x)
		c.Quantizer.EncodeVectorInto(codes, x)
		if got := c.MatchCodes(codes); got != want {
			t.Fatalf("MatchCodes(%v) = %d, Match says %d", x, got, want)
		}
		if got := c.matchCodesLinear(codes); got != want {
			t.Fatalf("matchCodesLinear(%v) = %d, Match says %d", x, got, want)
		}
	}
}

// TestMatchLinearFallback covers hand-assembled sets with no index.
func TestMatchLinearFallback(t *testing.T) {
	c := &CompiledRuleSet{
		Rules:        []TCAMRule{{Ranges: []IntRange{{Lo: 2, Hi: 5}}}},
		Quantizer:    quantizerFor(1, 4),
		DefaultLabel: 1,
	}
	if c.MatcherKind() != "linear" {
		t.Errorf("MatcherKind = %q, want linear", c.MatcherKind())
	}
	if got := c.MatchCodes([]uint64{3}); got != 0 {
		t.Errorf("fallback hit = %d, want 0", got)
	}
	if got := c.MatchCodes([]uint64{9}); got != 1 {
		t.Errorf("fallback miss = %d, want 1", got)
	}
}

// TestCompileEmptyWhitelist pins the degenerate no-rule set: both
// matchers answer the default label and no index is built.
func TestCompileEmptyWhitelist(t *testing.T) {
	rs := &RuleSet{Dim: 2, DefaultLabel: 1}
	c := Compile(rs, quantizerFor(2, 8))
	if c.bv != nil {
		t.Error("index built for empty whitelist")
	}
	if got := c.MatchCodes([]uint64{0, 0}); got != 1 {
		t.Errorf("empty whitelist MatchCodes = %d, want 1", got)
	}
	if c.BVIndexBytes() != 0 {
		t.Errorf("BVIndexBytes = %d, want 0", c.BVIndexBytes())
	}
}

// TestCompileIndexAccounting sanity-checks the reported footprint: a
// direct-table index must account its bitmaps, bounds and code tables.
func TestCompileIndexAccounting(t *testing.T) {
	r := mathx.NewRand(11)
	c := Compile(randomRuleSet(r, 4, 100), quantizerFor(4, 12))
	if c.MatcherKind() != "bitvector" {
		t.Fatalf("MatcherKind = %q, want bitvector", c.MatcherKind())
	}
	words := (len(c.Rules) + 63) / 64
	// 4 features × 4096 levels × 4 B of direct table is the floor.
	if min := 4 * 4096 * 4; c.BVIndexBytes() < min {
		t.Errorf("BVIndexBytes = %d, want >= %d", c.BVIndexBytes(), min)
	}
	for i := range c.bv.feats {
		f := &c.bv.feats[i]
		if len(f.bitmaps) != len(f.bounds)*words {
			t.Errorf("feature %d: bitmaps len %d, want %d", i, len(f.bitmaps), len(f.bounds)*words)
		}
		if f.direct == nil {
			t.Errorf("feature %d: no direct table at 12 bits", i)
		}
	}
}

// TestMatchAllocationFree asserts the whole match surface stays off the
// heap: the data-plane promise the serving runtime's throughput rests
// on.
func TestMatchAllocationFree(t *testing.T) {
	r := mathx.NewRand(3)
	c := Compile(randomRuleSet(r, 13, 128), quantizerFor(13, 20))
	x := make([]float64, 13)
	for i := range x {
		x[i] = r.Float64() * 100
	}
	codes := c.Quantizer.EncodeVector(x)
	if n := testing.AllocsPerRun(200, func() { c.MatchCodes(codes) }); n != 0 {
		t.Errorf("MatchCodes allocs = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { c.Match(x) }); n != 0 {
		t.Errorf("Match allocs = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { c.Quantizer.EncodeVectorInto(codes, x) }); n != 0 {
		t.Errorf("EncodeVectorInto allocs = %v, want 0", n)
	}
}

// TestCompileDedupKeyCollisionFree pins the binary dedup key: rules
// whose ranges differ only in which field holds which bound must not
// collapse together (a formatting-based key could; a truncated or
// order-insensitive one would).
func TestCompileDedupKeyCollisionFree(t *testing.T) {
	rs := &RuleSet{
		Rules: []Rule{
			{Box: NewBox([]float64{10, 20}, []float64{30, 40}), Label: 0},
			{Box: NewBox([]float64{20, 10}, []float64{40, 30}), Label: 0},
			{Box: NewBox([]float64{10, 20}, []float64{30, 40}), Label: 0}, // true duplicate
		},
		Dim: 2, DefaultLabel: 1,
	}
	c := Compile(rs, quantizerFor(2, 10))
	if len(c.Rules) != 2 {
		t.Errorf("compiled rules = %d, want 2 (distinct pair kept, duplicate dropped)", len(c.Rules))
	}
}
