package rules

import (
	"cmp"
	"fmt"
	"math"
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
// For each dimension d, one index sort groups the rules by label and by
// the bit patterns of every other dimension's bounds; only rules in one
// group can be adjacent along d. Each group is walked in ascending rule
// index. A merge rewrites dimension d only, which the key leaves out,
// so groups are independent and their order cannot change the result
// (DESIGN.md §2). The key compares bits, not float values: -0 and +0
// must stay in different groups, or adjacentAlong's == would merge
// cells whose bounds differ in the sign of zero.
func MergeAdjacent(ruleList []Rule) []Rule {
	dims := dimOf(ruleList)
	order := make([]int, len(ruleList))
	dead := make([]bool, len(ruleList))
	for {
		merged := false
		for d := 0; d < dims; d++ {
			n := len(ruleList)
			order, dead = order[:n], dead[:n]
			for i := range order {
				order[i] = i
				dead[i] = false
			}
			slices.SortFunc(order, func(i, j int) int {
				if c := cmpMergeKey(&ruleList[i], &ruleList[j], d); c != 0 {
					return c
				}
				return cmp.Compare(i, j)
			})
			for lo := 0; lo < n; {
				hi := lo + 1
				for hi < n && cmpMergeKey(&ruleList[order[lo]], &ruleList[order[hi]], d) == 0 {
					hi++
				}
				group := order[lo:hi]
				lo = hi
				for a, i := range group {
					if dead[i] {
						continue
					}
					for _, j := range group[a+1:] {
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
