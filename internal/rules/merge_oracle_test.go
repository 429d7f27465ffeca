package rules

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"iguard/internal/mathx"
)

// mergeAdjacentOracle is the string-signature merge MergeAdjacent
// replaced, kept verbatim (less its unused pass limit) as the
// reference: rules are bucketed by a %g-formatted signature of every
// dimension except d, and buckets are walked in sorted signature order.
func mergeAdjacentOracle(ruleList []Rule) []Rule {
	for {
		merged := false
		for d := 0; d < dimOf(ruleList); d++ {
			buckets := map[string][]int{}
			for i, r := range ruleList {
				sig := signatureExcluding(r.Box, d, r.Label)
				buckets[sig] = append(buckets[sig], i)
			}
			sigs := make([]string, 0, len(buckets))
			for sig := range buckets { //iguard:sorted signatures are collected then sorted below
				sigs = append(sigs, sig)
			}
			sort.Strings(sigs)
			dead := make([]bool, len(ruleList))
			for _, sig := range sigs {
				idxs := buckets[sig]
				for a := 0; a < len(idxs); a++ {
					i := idxs[a]
					if dead[i] {
						continue
					}
					for b := a + 1; b < len(idxs); b++ {
						j := idxs[b]
						if dead[j] {
							continue
						}
						if adjacentAlong(ruleList[i].Box, ruleList[j].Box, d) {
							ruleList[i].Box = mergeAlong(ruleList[i].Box, ruleList[j].Box, d)
							dead[j] = true
							merged = true
						}
					}
				}
			}
			compact := ruleList[:0]
			for i, r := range ruleList {
				if !dead[i] {
					compact = append(compact, r)
				}
			}
			ruleList = compact
		}
		if !merged {
			return ruleList
		}
	}
}

// signatureExcluding builds a bucketing key from every dimension except
// d, plus the label, so only merge-compatible rules collide.
func signatureExcluding(b Box, d, label int) string {
	key := fmt.Sprintf("L%d|", label)
	for i, iv := range b {
		if i == d {
			continue
		}
		key += fmt.Sprintf("%d:%g,%g|", i, iv.Lo, iv.Hi)
	}
	return key
}

// mergeTestRules builds a seeded grid-aligned rule list of about n
// rules in dims dimensions: a random kd partition of the all-real box
// (±Inf outer bounds), cut at values from a small per-dimension pool
// that holds 0. Each side of a cut at 0 independently takes -0 or +0,
// so cells can agree on every bound by value yet differ in the sign of
// a zero. A child keeps its parent's label with probability 0.8, so
// same-label neighbours (the mergeable case) are common; a few boxes
// are duplicated, some with the other label, and the list is shuffled
// half the time so rule index order differs from partition order.
func mergeTestRules(r *rand.Rand, dims, n int) []Rule {
	if n == 0 {
		return nil
	}
	all := []float64{-3, -1, 0, 0.5, 2, 7}
	pools := make([][]float64, dims)
	for k := range pools {
		for _, v := range all {
			if v == 0 || r.Intn(3) > 0 {
				pools[k] = append(pools[k], v)
			}
		}
	}
	signed := func(v float64) float64 {
		if v == 0 && r.Intn(2) == 0 {
			return math.Copysign(0, -1)
		}
		return v
	}
	rules := []Rule{{Box: FullBox(dims, math.Inf(-1), math.Inf(1)), Label: r.Intn(2)}}
	for tries := 0; len(rules) < n && tries < 50*n; tries++ {
		ci, k := r.Intn(len(rules)), r.Intn(dims)
		cell := rules[ci]
		cut := pools[k][r.Intn(len(pools[k]))]
		if !(cell.Box[k].Lo < cut && cut < cell.Box[k].Hi) {
			continue
		}
		left, right := cell.Box.Clone(), cell.Box.Clone()
		left[k].Hi, right[k].Lo = signed(cut), signed(cut)
		child := func() int {
			if r.Intn(5) == 0 {
				return 1 - cell.Label
			}
			return cell.Label
		}
		rules[ci] = Rule{Box: left, Label: child()}
		rules = append(rules, Rule{Box: right, Label: child()})
	}
	for dups := len(rules) / 20; dups > 0; dups-- {
		dup := rules[r.Intn(len(rules))]
		if r.Intn(2) == 0 {
			dup.Label = 1 - dup.Label
		}
		rules = append(rules, Rule{Box: dup.Box.Clone(), Label: dup.Label})
	}
	if r.Intn(2) == 0 {
		mathx.Shuffle(r, rules)
	}
	return rules
}

// checkMergeMatchesOracle merges in with merge and with the oracle
// and requires bit-identical rule lists. reflect.DeepEqual would not
// do: it compares floats with ==, so it equates -0 and +0.
func checkMergeMatchesOracle(t *testing.T, in []Rule, merge func([]Rule) []Rule) {
	t.Helper()
	got := merge(append([]Rule(nil), in...))
	want := mergeAdjacentOracle(append([]Rule(nil), in...))
	if len(got) != len(want) {
		t.Fatalf("%d rules merged to %d, oracle %d", len(in), len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Label != w.Label || len(g.Box) != len(w.Box) {
			t.Fatalf("rule %d: got %+v, oracle %+v", i, g, w)
		}
		for k := range w.Box {
			if math.Float64bits(g.Box[k].Lo) != math.Float64bits(w.Box[k].Lo) ||
				math.Float64bits(g.Box[k].Hi) != math.Float64bits(w.Box[k].Hi) {
				t.Fatalf("rule %d dim %d: got %v, oracle %v", i, k, g.Box[k], w.Box[k])
			}
		}
	}
}

// oracleGrids runs check on 36 seeded random grids: 1–13 dimensions,
// 0–3000 rules, both labels, duplicate boxes, ±Inf bounds and -0/+0
// split values.
func oracleGrids(t *testing.T, check func(t *testing.T, in []Rule)) {
	r := mathx.NewRand(0x3e29e)
	cases := [][2]int{{1, 0}, {1, 1}, {13, 0}, {1, 40}, {2, 200}, {13, 3000}}
	for i := 0; i < 30; i++ {
		cases = append(cases, [2]int{1 + r.Intn(13), r.Intn(1200)})
	}
	for _, c := range cases {
		dims, n := c[0], c[1]
		in := mergeTestRules(r, dims, n)
		t.Run(fmt.Sprintf("dims=%d/n=%d", dims, len(in)), func(t *testing.T) {
			check(t, in)
		})
	}
}

// TestMergeAdjacentMatchesOracle pins the hash-grouped merge to the
// string-signature reference over the seeded grids.
func TestMergeAdjacentMatchesOracle(t *testing.T) {
	oracleGrids(t, func(t *testing.T, in []Rule) {
		checkMergeMatchesOracle(t, in, MergeAdjacent)
	})
}

// TestMergeHashCollisionsMatchOracle merges the seeded grids with a
// constant hash, so every rule of a pass shares one run: every pair is
// a collision, and only the exact bit-key compare keeps keys apart.
// The result must still be the oracle's, bit for bit.
func TestMergeHashCollisionsMatchOracle(t *testing.T) {
	constant := func(uint64) uint64 { return 0x5eed }
	oracleGrids(t, func(t *testing.T, in []Rule) {
		checkMergeMatchesOracle(t, in, func(rs []Rule) []Rule { return mergeWith(rs, constant) })
	})
}

// FuzzMergeAdjacent drives the same generator from fuzzed seeds and
// sizes (rule counts capped at 600 to keep each input fast).
func FuzzMergeAdjacent(f *testing.F) {
	for _, seed := range []struct {
		seed int64
		dims uint8
		n    uint16
	}{{1, 1, 30}, {2, 2, 120}, {3, 4, 400}, {4, 13, 600}, {5, 7, 0}, {6, 3, 599}} {
		f.Add(seed.seed, seed.dims, seed.n)
	}
	f.Fuzz(func(t *testing.T, seed int64, dims uint8, n uint16) {
		in := mergeTestRules(mathx.NewRand(seed), 1+int(dims)%13, int(n)%601)
		checkMergeMatchesOracle(t, in, MergeAdjacent)
	})
}
