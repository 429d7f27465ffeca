package rules

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// GenOptions controls hypercube enumeration.
type GenOptions struct {
	// MaxCells caps the number of hypercubes enumerated; Generate
	// returns an error beyond it so callers can shrink the forest or
	// coarsen features rather than silently truncating coverage.
	MaxCells int
	// SkipMerge disables the adjacent-cell merge entirely (for the
	// merging ablation; deployments always merge).
	SkipMerge bool
}

// DefaultGenOptions returns generous defaults (64k cells, merging on).
func DefaultGenOptions() GenOptions {
	return GenOptions{MaxCells: 65536}
}

// Generate implements §3.2.3. It forms iForest hypercubes as the
// non-empty intersections of leaf regions across all trees (equivalent
// to the paper's cartesian product of feature boundaries restricted to
// reachable combinations, which is what makes the construction
// tractable), labels each hypercube by forest inference at its centre,
// merges adjacent same-label hypercubes, and returns the labelled set
// with a malicious default. Feature-space regions outside some tree's
// training bounds are not covered by any hypercube and therefore fall
// to the default label — precisely the whitelist semantics the paper
// deploys (unseen regions are never whitelisted).
//
// universe is the outer feature box (typically a margin around the
// scaled training range). perTreeLeaves holds every tree's leaf boxes.
// classify is the distilled forest's Predict.
func Generate(universe Box, perTreeLeaves [][]Box, classify func([]float64) int, opts GenOptions) (*RuleSet, error) {
	if opts.MaxCells <= 0 {
		opts.MaxCells = DefaultGenOptions().MaxCells
	}
	if universe.Empty() {
		return nil, fmt.Errorf("rules: empty universe box")
	}
	var cells []Box
	var overflow error
	var descend func(box Box, ti int)
	descend = func(box Box, ti int) {
		if overflow != nil {
			return
		}
		if ti == len(perTreeLeaves) {
			cells = append(cells, box)
			if len(cells) > opts.MaxCells {
				overflow = fmt.Errorf("rules: hypercube count exceeded MaxCells=%d; reduce trees or coarsen features", opts.MaxCells)
			}
			return
		}
		for _, leaf := range perTreeLeaves[ti] {
			inter := box.Intersect(leaf)
			if !inter.Empty() {
				descend(inter, ti+1)
			}
		}
	}
	descend(universe.Clone(), 0)
	if overflow != nil {
		return nil, overflow
	}

	// Label every cell by forest inference at its centre: every sample
	// inside one hypercube shares the same label by construction.
	ruleList := make([]Rule, 0, len(cells))
	for _, cell := range cells {
		ruleList = append(ruleList, Rule{Box: cell, Label: classify(cell.Center())})
	}

	if !opts.SkipMerge {
		ruleList = MergeAdjacent(ruleList)
	}
	return &RuleSet{Rules: ruleList, Dim: len(universe), DefaultLabel: 1}, nil
}

// GenerateVoted is Generate specialised to majority-vote forests: it
// descends the per-tree labelled leaf regions accumulating the vote and
// short-circuits as soon as a partial cell's verdict is decided — once
// more than half the trees voted malicious (or can no longer reach a
// majority), the remaining trees cannot change the label, so the cell
// need not be refined further. This keeps the hypercube count
// proportional to the decision boundary's complexity instead of the
// full leaf-region arrangement. Ties label benign, matching the
// forest's Predict.
func GenerateVoted(universe Box, perTreeLeaves [][]Box, perTreeLabels [][]int, opts GenOptions) (*RuleSet, error) {
	if opts.MaxCells <= 0 {
		opts.MaxCells = DefaultGenOptions().MaxCells
	}
	if universe.Empty() {
		return nil, fmt.Errorf("rules: empty universe box")
	}
	if len(perTreeLeaves) != len(perTreeLabels) {
		return nil, fmt.Errorf("rules: %d leaf sets vs %d label sets", len(perTreeLeaves), len(perTreeLabels))
	}
	t := len(perTreeLeaves)
	var ruleList []Rule
	var overflow error
	emit := func(box Box, label int) {
		ruleList = append(ruleList, Rule{Box: box, Label: label})
		if len(ruleList) > opts.MaxCells {
			overflow = fmt.Errorf("rules: hypercube count exceeded MaxCells=%d; reduce trees or coarsen features", opts.MaxCells)
		}
	}
	var descend func(box Box, ti, votes int)
	descend = func(box Box, ti, votes int) {
		if overflow != nil {
			return
		}
		if 2*votes > t {
			emit(box, 1)
			return
		}
		remaining := t - ti
		if 2*(votes+remaining) <= t {
			emit(box, 0)
			return
		}
		if ti == t {
			// votes <= t/2 here: benign (ties benign).
			emit(box, 0)
			return
		}
		for li, leaf := range perTreeLeaves[ti] {
			inter := box.Intersect(leaf)
			if !inter.Empty() {
				descend(inter, ti+1, votes+perTreeLabels[ti][li])
			}
		}
	}
	descend(universe.Clone(), 0, 0)
	if overflow != nil {
		return nil, overflow
	}
	if !opts.SkipMerge {
		ruleList = MergeAdjacent(ruleList)
	}
	return &RuleSet{Rules: ruleList, Dim: len(universe), DefaultLabel: 1}, nil
}

// MergeAdjacent greedily merges rules whose boxes are adjacent along one
// dimension and share a label, repeating until a fixed point. This is
// the purple-box step of Fig. 3c.
//
// Each pass d groups the rules by a 64-bit hash of their merge key:
// the label and the bit patterns of every other dimension's bounds.
// Only rules with one key can be adjacent along d. The hashes are
// sorted as (hash, index) integers, and each run of equal hashes is
// walked in ascending rule index; a pair merges only when the boxes
// touch along d and the exact keys are equal. So a hash collision puts
// two keys in one run but never merges across them: the rules of each
// key meet in the same order as in a group of their own. A merge
// rewrites dimension d only, which the key leaves out, so groups are
// independent and their order cannot change the result (DESIGN.md §2).
// The key compares bits, not float values: -0 and +0 must stay in
// different groups, or adjacentAlong's == would merge cells whose
// bounds differ in the sign of zero. The loop stops once every
// dimension in a row has merged nothing.
func MergeAdjacent(ruleList []Rule) []Rule {
	return mergeWith(ruleList, mix64)
}

// mergeWith is MergeAdjacent with the hash's 64-bit mixer as a
// parameter, so a test can force every rule into one run.
//
// Each rule keeps one hash term per dimension and their sum (plus a
// label term); the hash for pass d is the sum less d's term, and a
// merge along d refreshes only the merged rule's term for d.
func mergeWith(ruleList []Rule, mix func(uint64) uint64) []Rule {
	n, dims := len(ruleList), dimOf(ruleList)
	if n < 2 || dims == 0 {
		return ruleList
	}
	term := func(k int, iv Interval) uint64 {
		return mix(mix(math.Float64bits(iv.Lo)^uint64(k+1)*0x9e3779b97f4a7c15) ^ math.Float64bits(iv.Hi))
	}
	terms := make([]uint64, n*dims)
	sums := make([]uint64, n)
	for i, r := range ruleList {
		sum := mix(uint64(r.Label))
		for k, iv := range r.Box {
			terms[i*dims+k] = term(k, iv)
			sum += terms[i*dims+k]
		}
		sums[i] = sum
	}
	// The low idxBits of a sort key hold the rule index, the rest the
	// hash; indices only shrink as rules merge.
	idxBits := bits.Len(uint(n - 1))
	idxMask := uint64(1)<<idxBits - 1
	keys := make([]uint64, n)
	dead := make([]bool, n)
	for d, idle := 0, 0; idle < dims; d = (d + 1) % dims {
		keys = keys[:n]
		for i := range keys {
			keys[i] = (sums[i]-terms[i*dims+d])&^idxMask | uint64(i)
		}
		slices.Sort(keys)
		merged := false
		for lo := 0; lo < n; {
			hi := lo + 1
			for hi < n && (keys[hi]^keys[lo])&^idxMask == 0 {
				hi++
			}
			run := keys[lo:hi]
			lo = hi
			for a, ki := range run {
				i := int(ki & idxMask)
				if dead[i] {
					continue
				}
				for _, kj := range run[a+1:] {
					j := int(kj & idxMask)
					if dead[j] || !adjacentAlong(ruleList[i].Box, ruleList[j].Box, d) || cmpMergeKey(&ruleList[i], &ruleList[j], d) != 0 {
						continue
					}
					ruleList[i].Box = mergeAlong(ruleList[i].Box, ruleList[j].Box, d)
					t := term(d, ruleList[i].Box[d])
					sums[i] += t - terms[i*dims+d]
					terms[i*dims+d] = t
					dead[j] = true
					merged = true
				}
			}
		}
		if !merged {
			idle++
			continue
		}
		idle = 0
		w := 0
		for i := 0; i < n; i++ {
			if dead[i] {
				dead[i] = false
				continue
			}
			ruleList[w], sums[w] = ruleList[i], sums[i]
			copy(terms[w*dims:(w+1)*dims], terms[i*dims:(i+1)*dims])
			w++
		}
		n = w
		ruleList = ruleList[:n]
	}
	return ruleList
}

// mix64 is the splitmix64 finaliser: a fixed, seedless bijection of
// uint64 whose output bits each depend on every input bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func dimOf(ruleList []Rule) int {
	if len(ruleList) == 0 {
		return 0
	}
	return len(ruleList[0].Box)
}

// cmpMergeKey orders two rules by their merge key excluding dimension
// d: label, then each other dimension's Lo and Hi bit patterns.
func cmpMergeKey(a, b *Rule, d int) int {
	if c := cmp.Compare(a.Label, b.Label); c != 0 {
		return c
	}
	for k := range a.Box {
		if k == d {
			continue
		}
		if c := cmp.Compare(math.Float64bits(a.Box[k].Lo), math.Float64bits(b.Box[k].Lo)); c != 0 {
			return c
		}
		if c := cmp.Compare(math.Float64bits(a.Box[k].Hi), math.Float64bits(b.Box[k].Hi)); c != 0 {
			return c
		}
	}
	return 0
}
