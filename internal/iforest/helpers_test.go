package iforest

import "slices"

// SplitValues returns, per feature, the sorted distinct split points
// used anywhere in the forest — the feature boundaries from which
// §3.2.3 forms hypercubes.
func (f *Forest) SplitValues() [][]float64 {
	seen := make([]map[float64]bool, f.Dim)
	for i := range seen {
		seen[i] = map[float64]bool{}
	}
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf() {
			return
		}
		seen[n.Feature][n.Split] = true
		walk(n.Left)
		walk(n.Right)
	}
	for _, t := range f.Trees {
		walk(t.root)
	}
	out := make([][]float64, f.Dim)
	for i, m := range seen {
		for v := range m { //iguard:sorted values are collected then sorted below
			out[i] = append(out[i], v)
		}
		slices.Sort(out[i])
	}
	return out
}

// MaxDepth returns the deepest leaf depth in the forest.
func (f *Forest) MaxDepth() int {
	max := 0
	var walk func(n *node, d int)
	walk = func(n *node, d int) {
		if n.isLeaf() {
			if d > max {
				max = d
			}
			return
		}
		walk(n.Left, d+1)
		walk(n.Right, d+1)
	}
	for _, t := range f.Trees {
		walk(t.root, 0)
	}
	return max
}
