// Package iforest implements the conventional Isolation Forest of
// Liu, Ting and Zhou (ICDM 2008), the baseline that iGuard improves on.
// Trees are grown on random sub-samples with uniformly random
// feature/split choices; anomaly scores follow the standard
// 2^(−E[h(x)]/c(ψ)) formulation.
//
// Note on the score convention: §3.1 of the iGuard paper writes
// label = 1{score(x) < τ}, but with score(x) = 2^(−E(h(x))/c(n))
// anomalies — which have short expected paths — receive *high* scores.
// This package follows the original Liu et al. convention: higher score
// means more anomalous, and Predict returns 1 when score(x) >= τ.
package iforest

import (
	"fmt"
	"math"
	"math/rand"

	"iguard/internal/mathx"
	"iguard/internal/parallel"
	"iguard/internal/rules"
)

// Options configures training. The zero value is not usable; call
// DefaultOptions or fill every field.
type Options struct {
	// Trees is t, the ensemble size.
	Trees int
	// SubSample is Ψ, the per-tree sample size.
	SubSample int
	// Contamination is the assumed anomaly fraction used by
	// CalibrateThreshold to derive τ.
	Contamination float64
	// Seed drives all randomness in training.
	Seed int64
	// Parallelism bounds the worker count for per-tree growth
	// (0 selects GOMAXPROCS). Every tree derives its own random stream
	// from (Seed, tree index), so the forest is identical for every
	// value; the knob only changes wall-clock time.
	Parallelism int `json:"-"`
}

// DefaultOptions returns the classic iForest configuration
// (t = 100, Ψ = 256, contamination 0.1).
func DefaultOptions() Options {
	return Options{Trees: 100, SubSample: 256, Contamination: 0.1, Seed: 1}
}

// node is one iTree node. Leaves have Left == Right == nil.
type node struct {
	Feature int
	Split   float64
	Left    *node
	Right   *node
	// Size is the number of training samples that reached this node;
	// used for the c(Size) path-length adjustment at external nodes.
	Size int
}

func (n *node) isLeaf() bool { return n.Left == nil }

// Tree is a single isolation tree.
type Tree struct {
	root *node
	// bounds is the bounding box of this tree's training sub-sample,
	// used to derive leaf regions.
	bounds rules.Box
}

// Forest is a trained isolation forest.
type Forest struct {
	Trees     []*Tree
	SubSample int
	Dim       int
	// Threshold is τ: Predict returns 1 when Score >= Threshold.
	Threshold float64
}

// harmonic approximates the harmonic number H(i) = ln(i) + γ.
func harmonic(i float64) float64 {
	const eulerGamma = 0.5772156649015329
	return math.Log(i) + eulerGamma
}

// C returns the average path length of an unsuccessful BST search over n
// samples — the normalisation factor c(n) from the paper.
func C(n int) float64 {
	switch {
	case n <= 1:
		return 0
	case n == 2:
		return 1
	default:
		fn := float64(n)
		return 2*harmonic(fn-1) - 2*(fn-1)/fn
	}
}

// Fit trains a conventional isolation forest on x. Trees grow
// concurrently under opts.Parallelism workers, each from its own
// (Seed, tree index)-derived stream, so the forest is identical for
// every worker count.
func Fit(x [][]float64, opts Options) *Forest {
	if len(x) == 0 {
		panic("iforest: empty training set")
	}
	if opts.Trees <= 0 || opts.SubSample <= 0 || opts.Parallelism < 0 {
		panic(fmt.Sprintf("iforest: invalid options %+v", opts))
	}
	dim := len(x[0])
	f := &Forest{SubSample: minInt(opts.SubSample, len(x)), Dim: dim, Threshold: 0.5}
	maxHeight := int(math.Ceil(math.Log2(float64(f.SubSample))))
	if maxHeight < 1 {
		maxHeight = 1
	}
	f.Trees = make([]*Tree, opts.Trees)
	// Per-tree seeds are drawn serially in tree order before the
	// parallel fan-out, so every tree owns an independent stream
	// regardless of worker count.
	seedr := mathx.NewRand(mathx.DeriveSeed(opts.Seed, 0))
	seeds := make([]int64, opts.Trees)
	for t := range seeds {
		seeds[t] = seedr.Int63()
	}
	parallel.Do(opts.Parallelism, opts.Trees, func(t int) {
		r := mathx.NewRand(seeds[t])
		idx := mathx.SampleWithoutReplacement(r, len(x), f.SubSample)
		sample := make([][]float64, len(idx))
		for i, j := range idx {
			sample[i] = x[j]
		}
		f.Trees[t] = growTree(r, sample, dim, maxHeight)
	})
	return f
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func growTree(r *rand.Rand, sample [][]float64, dim, maxHeight int) *Tree {
	bounds := boundsOf(sample, dim)
	return &Tree{root: buildNode(r, sample, 0, maxHeight), bounds: bounds}
}

func boundsOf(sample [][]float64, dim int) rules.Box {
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for j := 0; j < dim; j++ {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	for _, s := range sample {
		for j, v := range s {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	for j := 0; j < dim; j++ {
		if math.IsInf(lo[j], 1) {
			lo[j], hi[j] = 0, 0
		}
		// Open the upper edge slightly so max-valued samples fall inside
		// the half-open leaf regions.
		hi[j] = math.Nextafter(hi[j], math.Inf(1))
	}
	return rules.NewBox(lo, hi)
}

func buildNode(r *rand.Rand, sample [][]float64, height, maxHeight int) *node {
	n := &node{Size: len(sample)}
	if len(sample) <= 1 || height >= maxHeight {
		return n
	}
	// Pick a random feature with spread, then a random split inside it.
	dim := len(sample[0])
	perm := r.Perm(dim)
	for _, q := range perm {
		lo, hi := sample[0][q], sample[0][q]
		for _, s := range sample[1:] {
			if s[q] < lo {
				lo = s[q]
			}
			if s[q] > hi {
				hi = s[q]
			}
		}
		if hi <= lo {
			continue
		}
		p := lo + r.Float64()*(hi-lo)
		var left, right [][]float64
		for _, s := range sample {
			if s[q] < p {
				left = append(left, s)
			} else {
				right = append(right, s)
			}
		}
		if len(left) == 0 || len(right) == 0 {
			continue
		}
		n.Feature = q
		n.Split = p
		n.Left = buildNode(r, left, height+1, maxHeight)
		n.Right = buildNode(r, right, height+1, maxHeight)
		return n
	}
	// All features constant: this is an external node.
	return n
}

// pathLength returns h(x) in one tree: traversal depth plus the c(Size)
// adjustment at the external node.
func (t *Tree) pathLength(x []float64) float64 {
	n := t.root
	depth := 0
	for !n.isLeaf() {
		if x[n.Feature] < n.Split {
			n = n.Left
		} else {
			n = n.Right
		}
		depth++
	}
	return float64(depth) + C(n.Size)
}

// ExpectedPathLength returns E[h(x)] over all trees — the quantity whose
// benign/malicious overlap Fig. 2 demonstrates.
func (f *Forest) ExpectedPathLength(x []float64) float64 {
	if len(f.Trees) == 0 {
		return 0
	}
	s := 0.0
	for _, t := range f.Trees {
		s += t.pathLength(x)
	}
	return s / float64(len(f.Trees))
}

// Score returns the anomaly score 2^(−E[h(x)]/c(ψ)) ∈ (0, 1); higher is
// more anomalous.
func (f *Forest) Score(x []float64) float64 {
	c := C(f.SubSample)
	if c == 0 { //iguard:allow(floatcompare) exact-zero sentinel
		return 0.5
	}
	return math.Pow(2, -f.ExpectedPathLength(x)/c)
}

// Predict returns 1 (malicious) when Score(x) >= Threshold.
func (f *Forest) Predict(x []float64) int {
	if f.Score(x) >= f.Threshold {
		return 1
	}
	return 0
}

// CalibrateThreshold sets τ so that the given contamination fraction of
// the calibration set scores at or above it.
func (f *Forest) CalibrateThreshold(calib [][]float64, contamination float64) {
	if len(calib) == 0 {
		return
	}
	contamination = mathx.Clamp(contamination, 0, 1)
	scores := make([]float64, len(calib))
	for i, x := range calib {
		scores[i] = f.Score(x)
	}
	f.Threshold = mathx.Quantile(scores, 1-contamination)
}

// LeafRegionsWithin returns tree ti's leaf boxes rooted at an explicit
// outer box (e.g. the full quantised feature domain for rule
// generation): boundary leaves extend to the box edges exactly as the
// routing comparison against split values does.
func (f *Forest) LeafRegionsWithin(ti int, root rules.Box) []rules.Box {
	t := f.Trees[ti]
	var out []rules.Box
	var walk func(n *node, box rules.Box)
	walk = func(n *node, box rules.Box) {
		if n.isLeaf() {
			out = append(out, box)
			return
		}
		left := box.Clone()
		left[n.Feature] = rules.Interval{Lo: box[n.Feature].Lo, Hi: n.Split}
		right := box.Clone()
		right[n.Feature] = rules.Interval{Lo: n.Split, Hi: box[n.Feature].Hi}
		walk(n.Left, left)
		walk(n.Right, right)
	}
	walk(t.root, root.Clone())
	return out
}

// NumLeaves returns the total leaf count across all trees — a proxy for
// the rule-set size the forest compiles into.
func (f *Forest) NumLeaves() int {
	count := 0
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf() {
			count++
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	for _, t := range f.Trees {
		walk(t.root)
	}
	return count
}
