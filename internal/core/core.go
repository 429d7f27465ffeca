// Package core implements iGuard's primary contribution: an isolation
// forest whose growth is guided by a trained autoencoder ensemble
// (§3.2.1), whose leaves are labelled by knowledge distillation from
// that ensemble (§3.2.2), and whose inference is a majority vote of leaf
// labels across trees. The labelled forest is subsequently compiled into
// whitelist rules by package rules (§3.2.3).
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"iguard/internal/mathx"
	"iguard/internal/parallel"
	"iguard/internal/rules"
)

// Guide is the trained model ensemble that steers forest growth and
// labels leaves. *autoencoder.Ensemble satisfies it.
type Guide interface {
	// Predict implements Autoencoders.predict(x) ∈ {0, 1}.
	Predict(x []float64) int
	// PerMemberErrors returns RE_u(x) for every ensemble member.
	PerMemberErrors(x []float64) []float64
	// LabelLeafByMeanRE implements Eq. 6 over per-member mean errors.
	LabelLeafByMeanRE(meanRE []float64) int
}

// Options configures guided training and distillation.
type Options struct {
	// Trees is t, the ensemble size.
	Trees int
	// SubSample is Ψ, the per-tree sample size.
	SubSample int
	// Augment is k, the number of synthetic points added at every node
	// during the split search. The paper grid-searches k; small values
	// keep the entropy signal anchored to the guide's labels on real
	// samples (k = 0 disables node augmentation entirely).
	Augment int
	// DistillAugment is the per-leaf augmentation count for knowledge
	// distillation; 0 falls back to Augment. Distillation augmentation
	// is what labels data-free (off-manifold) leaves malicious, so
	// deployments keep it positive even when Augment is 0.
	DistillAugment int
	// TauSplit is τ_split, the class-skew stopping threshold; the paper
	// found 10⁻² effective.
	TauSplit float64
	// MaxCandidatesPerFeature caps the (q, p) split search per feature
	// (0 = consider every midpoint). The paper explores the full space;
	// the cap trades a little fidelity for tractability on big nodes.
	MaxCandidatesPerFeature int
	// Seed drives all randomness.
	Seed int64
	// Bounds, when non-empty, is the full feature domain the deployment
	// covers (the paper's hypercubes span the whole quantised range —
	// Fig. 3c shows [0, 256]). Trees still grow over the sub-sample's
	// data bounds so footnote-7 augmentation stays data-informed, but
	// each tree is then wrapped in boundary-peel splits at the inflated
	// data bounds: the feature space outside the training range becomes
	// explicit leaves that knowledge distillation labels from augmented
	// samples (off-manifold, so typically malicious). Without this the
	// region outside the training range would inherit boundary-leaf
	// labels it was never probed for.
	Bounds rules.Box
	// BoundsMargin inflates the data bounds before peeling (fraction of
	// the per-feature span) so benign samples just beyond the training
	// range are not peeled off; default 0.1.
	BoundsMargin float64
	// RandomSplits replaces the guided information-gain search with the
	// conventional iForest's uniform random (feature, point) choice
	// while keeping augmentation, stopping, distillation and pruning —
	// the ablation isolating §3.2.1's contribution from §3.2.2's.
	RandomSplits bool
	// Parallelism bounds the worker count for per-tree growth and
	// distillation (0 selects GOMAXPROCS). Every tree derives its own
	// random stream from (Seed, tree index) via mathx.DeriveSeed, so
	// the trained forest is byte-identical for every value — the knob
	// only changes wall-clock time. Runtime-only: excluded from the
	// serialised forest so saved models do not depend on it.
	Parallelism int `json:"-"`
}

// DefaultOptions mirrors the paper's operating point (t and Ψ are grid
// searched there; these are the centres of its search space).
func DefaultOptions() Options {
	return Options{
		Trees:                   5,
		SubSample:               256,
		Augment:                 64,
		TauSplit:                1e-2,
		MaxCandidatesPerFeature: 32,
		Seed:                    1,
	}
}

// Validate reports the first invalid field, or nil for a usable
// configuration. Fit calls it; iguard.Config.Validate folds it into
// the public pre-flight check.
func (o Options) Validate() error {
	if o.Trees <= 0 {
		return fmt.Errorf("core: Trees must be positive, got %d", o.Trees)
	}
	if o.SubSample <= 0 {
		return fmt.Errorf("core: SubSample must be positive, got %d", o.SubSample)
	}
	if o.Augment < 0 {
		return fmt.Errorf("core: Augment must be non-negative, got %d", o.Augment)
	}
	if o.DistillAugment < 0 {
		return fmt.Errorf("core: DistillAugment must be non-negative, got %d", o.DistillAugment)
	}
	if o.TauSplit < 0 || o.TauSplit > 1 {
		return fmt.Errorf("core: TauSplit must be in [0,1], got %v", o.TauSplit)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("core: Parallelism must be non-negative (0 = GOMAXPROCS), got %d", o.Parallelism)
	}
	return nil
}

// node is one guided-iTree node. Leaves carry the distilled label.
type node struct {
	Feature int
	Split   float64
	Left    *node
	Right   *node

	// Leaf fields.
	Label  int
	Box    rules.Box
	MeanRE []float64
	// Size is the number of training samples that reached the node.
	Size int
}

func (n *node) isLeaf() bool { return n.Left == nil }

// Tree is one guided isolation tree.
type Tree struct {
	root   *node
	bounds rules.Box
}

// Forest is the trained, distilled iGuard forest.
type Forest struct {
	Trees []*Tree
	Dim   int
	opts  Options
}

// Per-phase stream tags for mathx.DeriveSeed: the growth phase draws
// its per-tree seeds from (Seed, growStream), the distillation phase
// from (Seed, distillStream), keeping the two phases' random streams
// disjoint. Within a phase, per-tree seeds are drawn serially in tree
// order before the parallel fan-out, so every tree owns an independent
// stream regardless of worker count.
const (
	growStream    int64 = 11000 // growth-phase stream tag
	distillStream int64 = 11001 // distillation-phase stream tag
)

// phaseSeeds derives n per-unit seeds for one training phase: a single
// serial pass over a (seed, stream)-keyed generator, indexed by unit.
func phaseSeeds(seed, stream int64, n int) []int64 {
	r := mathx.NewRand(mathx.DeriveSeed(seed, stream))
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63()
	}
	return out
}

// Fit grows the guided forest on benign training features x using the
// guide for node-expansion decisions (§3.2.1), then distils leaf labels
// from the guide (§3.2.2). It returns an error for invalid options or an
// empty training set.
func Fit(x [][]float64, guide Guide, opts Options) (*Forest, error) {
	return FitContext(context.Background(), x, guide, opts)
}

// FitContext is Fit with cooperative cancellation and bounded
// parallelism: trees grow and distil concurrently under
// opts.Parallelism workers, and a cancelled ctx abandons the units not
// yet started and returns ctx.Err(). Each tree's randomness derives
// from (opts.Seed, tree index), so the forest is identical for every
// worker count. The guide must be safe for concurrent read-only use
// (autoencoder ensembles are: inference is stateless).
func FitContext(ctx context.Context, x [][]float64, guide Guide, opts Options) (*Forest, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	dim := len(x[0])
	psi := opts.SubSample
	if psi > len(x) {
		psi = len(x)
	}
	maxHeight := int(math.Ceil(math.Log2(float64(psi))))
	if maxHeight < 1 {
		maxHeight = 1
	}
	f := &Forest{Dim: dim, opts: opts, Trees: make([]*Tree, opts.Trees)}
	seeds := phaseSeeds(opts.Seed, growStream, opts.Trees)
	err := parallel.For(ctx, opts.Parallelism, opts.Trees, func(t int) error {
		r := mathx.NewRand(seeds[t])
		idx := mathx.SampleWithoutReplacement(r, len(x), psi)
		sample := make([][]float64, len(idx))
		for i, j := range idx {
			sample[i] = x[j]
		}
		f.Trees[t] = growGuidedTree(r, sample, dim, maxHeight, guide, opts)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := f.Distill(ctx, x, guide); err != nil {
		return nil, err
	}
	f.Prune()
	return f, nil
}

// boundsOf returns the half-open bounding box of sample.
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
		hi[j] = math.Nextafter(hi[j], math.Inf(1))
	}
	return rules.NewBox(lo, hi)
}

// augmentBox draws k synthetic points from the node's feature ranges
// per footnote 7: per-feature normal with mean at the range midpoint and
// standard deviation equal to the range's quartile spread, clamped into
// the box.
func augmentBox(r *rand.Rand, box rules.Box, k int) [][]float64 {
	out := make([][]float64, 0, k)
	for i := 0; i < k; i++ {
		p := make([]float64, len(box))
		for j, iv := range box {
			sd := iv.Width() / 4 // quartile range of a uniform span
			v := mathx.NormalSample(r, iv.Mid(), sd)
			hi := iv.Hi
			if iv.Width() > 0 {
				hi = math.Nextafter(iv.Hi, math.Inf(-1))
			}
			p[j] = mathx.Clamp(v, iv.Lo, hi)
		}
		out = append(out, p)
	}
	return out
}

// augmentForSplit draws the k split-search probes as a mixture: half
// from footnote 7's node-range normal distribution, half as
// axis-perturbed real samples — a random member with one to three
// random features resampled uniformly over the node's range. The latter
// concentrates probes exactly where the threat model lives (benign-like
// points with a few features off the joint manifold), letting the
// entropy search discover thin interior anomaly slivers that volume
// sampling would almost never hit.
func augmentForSplit(r *rand.Rand, box rules.Box, k int, xNode [][]float64) [][]float64 {
	if k <= 0 {
		return nil
	}
	if len(xNode) == 0 {
		return augmentBox(r, box, k)
	}
	half := k / 2
	out := augmentBox(r, box, k-half)
	for i := 0; i < half; i++ {
		base := xNode[r.Intn(len(xNode))]
		p := append([]float64(nil), base...)
		// Exactly one feature resampled: an axis probe through a real
		// member, which is how guide-boundary crossings (and thus thin
		// interior anomaly slivers) get sampled.
		j := r.Intn(len(box))
		if box[j].Width() > 0 {
			p[j] = box[j].Lo + r.Float64()*box[j].Width()
		}
		out = append(out, p)
	}
	return out
}

func growGuidedTree(r *rand.Rand, sample [][]float64, dim, maxHeight int, guide Guide, opts Options) *Tree {
	dataBounds := boundsOf(sample, dim)
	if len(opts.Bounds) == 0 {
		root := buildGuidedNode(r, sample, dataBounds.Clone(), 0, maxHeight, guide, opts)
		return &Tree{root: root, bounds: dataBounds}
	}
	if len(opts.Bounds) != dim {
		panic(fmt.Sprintf("core: Bounds has %d dims, data has %d", len(opts.Bounds), dim))
	}
	margin := opts.BoundsMargin
	if margin <= 0 {
		margin = 0.1
	}
	inflated := dataBounds.Clone()
	for i := range inflated {
		m := inflated[i].Width() * margin
		inflated[i] = rules.Interval{
			Lo: math.Max(opts.Bounds[i].Lo, inflated[i].Lo-m),
			Hi: math.Min(opts.Bounds[i].Hi, inflated[i].Hi+m),
		}
	}
	inner := buildGuidedNode(r, sample, inflated.Clone(), 0, maxHeight, guide, opts)
	root := graftBoundaryPeel(inner, inflated, opts.Bounds)
	return &Tree{root: root, bounds: opts.Bounds.Clone()}
}

// graftBoundaryPeel wraps the inner tree with splits at the inflated
// data bounds, one low/high pair per dimension where the outer box
// extends beyond them. The peeled regions become leaves (labelled later
// by distillation); the innermost position holds the data-grown tree.
func graftBoundaryPeel(inner *node, dataBounds, outer rules.Box) *node {
	cur := inner
	box := dataBounds.Clone()
	// Peel from the innermost dimension outwards so the final root
	// covers the full outer box.
	for d := len(outer) - 1; d >= 0; d-- {
		if outer[d].Hi > box[d].Hi {
			highBox := box.Clone()
			highBox[d] = rules.Interval{Lo: box[d].Hi, Hi: outer[d].Hi}
			split := box[d].Hi
			box[d] = rules.Interval{Lo: box[d].Lo, Hi: outer[d].Hi}
			cur = &node{
				Feature: d,
				Split:   split,
				Left:    cur,
				Right:   &node{Box: highBox},
				Box:     box.Clone(),
			}
		}
		if outer[d].Lo < box[d].Lo {
			lowBox := box.Clone()
			lowBox[d] = rules.Interval{Lo: outer[d].Lo, Hi: box[d].Lo}
			split := box[d].Lo
			box[d] = rules.Interval{Lo: outer[d].Lo, Hi: box[d].Hi}
			cur = &node{
				Feature: d,
				Split:   split,
				Left:    &node{Box: lowBox},
				Right:   cur,
				Box:     box.Clone(),
			}
		}
	}
	return cur
}

// labelledSet carries X_decision with guide labels.
type labelledSet struct {
	pts    [][]float64
	labels []int
	nMal   int
}

func labelSet(guide Guide, pts [][]float64) labelledSet {
	ls := labelledSet{pts: pts, labels: make([]int, len(pts))}
	for i, p := range pts {
		ls.labels[i] = guide.Predict(p)
		ls.nMal += ls.labels[i]
	}
	return ls
}

// entropy returns H over the set's malicious fraction (Eq. 2).
func (ls labelledSet) entropy() float64 {
	if len(ls.pts) == 0 {
		return 0
	}
	return mathx.Entropy2(float64(ls.nMal) / float64(len(ls.pts)))
}

// skewRatio returns min(|mal|,|ben|)/max(|mal|,|ben|) — the quantity the
// third stopping criterion compares against τ_split.
func (ls labelledSet) skewRatio() float64 {
	mal := ls.nMal
	ben := len(ls.pts) - mal
	lo, hi := mal, ben
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi == 0 {
		return 0
	}
	return float64(lo) / float64(hi)
}

func buildGuidedNode(r *rand.Rand, xNode [][]float64, box rules.Box, height, maxHeight int, guide Guide, opts Options) *node {
	n := &node{Size: len(xNode), Box: box}
	// Stopping criteria 1 and 2.
	if len(xNode) <= 1 || height >= maxHeight {
		return n
	}
	// Build X_decision = X_node ∪ X_aug and label it with the guide.
	xAug := augmentForSplit(r, box, opts.Augment, xNode)
	decision := make([][]float64, 0, len(xNode)+len(xAug))
	decision = append(decision, xNode...)
	decision = append(decision, xAug...)
	ls := labelSet(guide, decision)
	// Stopping criterion 3: the node is already heavily skewed.
	if ls.skewRatio() < opts.TauSplit {
		return n
	}
	// Split choice: exhaustive information-gain search over (q, p)
	// (Eq. 3–4), or the conventional random choice under the ablation.
	var q int
	var p float64
	if opts.RandomSplits {
		var ok bool
		q, p, ok = randomSplit(r, xNode)
		if !ok {
			return n
		}
	} else {
		var gain float64
		q, p, gain = bestSplit(ls, len(box), opts.MaxCandidatesPerFeature)
		if gain <= 0 {
			return n
		}
	}
	// Partition the real samples (not the augmented ones) for recursion.
	var left, right [][]float64
	for _, s := range xNode {
		if s[q] < p {
			left = append(left, s)
		} else {
			right = append(right, s)
		}
	}
	leftBox := box.Clone()
	leftBox[q] = rules.Interval{Lo: box[q].Lo, Hi: p}
	rightBox := box.Clone()
	rightBox[q] = rules.Interval{Lo: p, Hi: box[q].Hi}
	n.Feature = q
	n.Split = p
	n.Left = buildGuidedNode(r, left, leftBox, height+1, maxHeight, guide, opts)
	n.Right = buildGuidedNode(r, right, rightBox, height+1, maxHeight, guide, opts)
	return n
}

// randomSplit implements the conventional iForest node choice: a random
// feature with spread in the real samples and a uniform split point
// inside its observed range. Returns ok=false when no feature has
// spread.
func randomSplit(r *rand.Rand, xNode [][]float64) (q int, p float64, ok bool) {
	if len(xNode) == 0 {
		return 0, 0, false
	}
	dim := len(xNode[0])
	for _, q := range r.Perm(dim) {
		lo, hi := xNode[0][q], xNode[0][q]
		for _, s := range xNode[1:] {
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
		return q, lo + r.Float64()*(hi-lo), true
	}
	return 0, 0, false
}

// bestSplit scans candidate split points per feature and returns the
// (q*, p*) pair maximising H(node) − H(node.children), plus the gain.
// Candidates are midpoints between consecutive distinct sorted feature
// values of X_decision; maxPerFeature > 0 strides the candidate list
// down to at most that many.
//
// Greedy single-threshold search is myopic about interior anomaly
// slivers: isolating an interval [p1, p2) needs two coordinated splits
// whose first step alone shows almost no gain (the XOR problem). The
// search therefore also scores interval isolation per feature — the
// three-way gain of carving [p1, p2) out — and when an interval beats
// every single split, the node splits at its lower edge; the child's
// own search then finds the upper edge, where the gain has become
// visible.
func bestSplit(ls labelledSet, dim, maxPerFeature int) (bestQ int, bestP float64, bestGain float64) {
	parentH := ls.entropy()
	total := len(ls.pts)
	bestQ, bestGain = -1, 0

	type valLabel struct {
		v     float64
		label int
	}
	for q := 0; q < dim; q++ {
		vals := make([]valLabel, total)
		for i, pt := range ls.pts {
			vals[i] = valLabel{pt[q], ls.labels[i]}
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i].v < vals[j].v })

		// Walk distinct-value boundaries accumulating left-side counts.
		leftN, leftMal := 0, 0
		type boundary struct {
			p       float64
			leftN   int
			leftMal int
		}
		var bounds []boundary
		for i := 0; i < total; {
			j := i
			for j < total && vals[j].v == vals[i].v { //iguard:allow(floatcompare) tie grouping wants exact identity
				leftN++
				leftMal += vals[j].label
				j++
			}
			if j < total {
				bounds = append(bounds, boundary{
					p:       (vals[j-1].v + vals[j].v) / 2,
					leftN:   leftN,
					leftMal: leftMal,
				})
			}
			i = j
		}
		stride := 1
		if maxPerFeature > 0 && len(bounds) > maxPerFeature {
			stride = (len(bounds) + maxPerFeature - 1) / maxPerFeature
		}
		var cands []boundary
		for bi := 0; bi < len(bounds); bi += stride {
			cands = append(cands, bounds[bi])
		}
		// Single-threshold candidates.
		for _, b := range cands {
			rightN := total - b.leftN
			rightMal := ls.nMal - b.leftMal
			wLeft := float64(b.leftN) / float64(total)
			hLeft := mathx.Entropy2(float64(b.leftMal) / float64(b.leftN))
			hRight := mathx.Entropy2(float64(rightMal) / float64(rightN))
			gain := parentH - (wLeft*hLeft + (1-wLeft)*hRight)
			if gain > bestGain {
				bestQ, bestP, bestGain = q, b.p, gain
			}
		}
		// Interval candidates [cands[a].p, cands[b].p): three-way gain,
		// realised by splitting at the lower edge now.
		for a := 0; a < len(cands); a++ {
			for c := a + 1; c < len(cands); c++ {
				midN := cands[c].leftN - cands[a].leftN
				midMal := cands[c].leftMal - cands[a].leftMal
				if midN == 0 {
					continue
				}
				loN, loMal := cands[a].leftN, cands[a].leftMal
				hiN := total - cands[c].leftN
				hiMal := ls.nMal - cands[c].leftMal
				h := 0.0
				if loN > 0 {
					h += float64(loN) / float64(total) * mathx.Entropy2(float64(loMal)/float64(loN))
				}
				h += float64(midN) / float64(total) * mathx.Entropy2(float64(midMal)/float64(midN))
				if hiN > 0 {
					h += float64(hiN) / float64(total) * mathx.Entropy2(float64(hiMal)/float64(hiN))
				}
				gain := parentH - h
				if gain > bestGain {
					bestQ, bestP, bestGain = q, cands[a].p, gain
					if loN == 0 {
						// Degenerate interval starting at the left edge:
						// realise it by splitting at the upper edge
						// instead (the lower edge separates nothing).
						bestP = cands[c].p
					}
				}
			}
		}
	}
	return bestQ, bestP, bestGain
}

// Distill implements §3.2.2: route every training sample to its leaf in
// every tree, augment each leaf with k synthetic points from the leaf's
// feature range, embed per-member expected reconstruction errors
// (Eq. 5) and transform them into leaf labels (Eq. 6). Fit calls this
// automatically; it is exported so callers can re-distil with a
// different guide. Trees distil concurrently under the forest's
// Parallelism option, each from its own (Seed, tree index)-derived
// stream; a cancelled ctx abandons remaining trees and returns
// ctx.Err().
func (f *Forest) Distill(ctx context.Context, xTrain [][]float64, guide Guide) error {
	seeds := phaseSeeds(f.opts.Seed, distillStream, len(f.Trees))
	return parallel.For(ctx, f.opts.Parallelism, len(f.Trees), func(ti int) error {
		t := f.Trees[ti]
		r := mathx.NewRand(seeds[ti])
		// Gather leaf membership.
		members := map[*node][][]float64{}
		for _, x := range xTrain {
			leaf := t.route(x)
			members[leaf] = append(members[leaf], x)
		}
		var walk func(n *node)
		walk = func(n *node) {
			if !n.isLeaf() {
				walk(n.Left)
				walk(n.Right)
				return
			}
			xLeaf := members[n]
			k := f.opts.DistillAugment
			if k == 0 {
				k = f.opts.Augment
			}
			xLeaf = append(xLeaf, augmentBox(r, n.Box, k)...)
			if len(xLeaf) == 0 {
				n.Label = 0
				return
			}
			var sums []float64
			for _, x := range xLeaf {
				errs := guide.PerMemberErrors(x)
				if sums == nil {
					sums = make([]float64, len(errs))
				}
				for i, e := range errs {
					sums[i] += e
				}
			}
			for i := range sums {
				sums[i] /= float64(len(xLeaf))
			}
			n.MeanRE = sums
			n.Label = guide.LabelLeafByMeanRE(sums)
		}
		walk(t.root)
		return nil
	})
}

// Prune collapses sibling leaves that received the same distilled label
// into their parent (the split separated nothing after distillation).
// Predictions are unchanged — the same feature region keeps the same
// label — while leaf counts, and therefore whitelist-rule hypercube
// counts, shrink substantially. Fit calls this after Distill.
func (f *Forest) Prune() {
	for _, t := range f.Trees {
		t.root = pruneNode(t.root)
	}
}

func pruneNode(n *node) *node {
	if n.isLeaf() {
		return n
	}
	n.Left = pruneNode(n.Left)
	n.Right = pruneNode(n.Right)
	if n.Left.isLeaf() && n.Right.isLeaf() && n.Left.Label == n.Right.Label {
		merged := &node{
			Label: n.Left.Label,
			Size:  n.Left.Size + n.Right.Size,
			Box:   n.Box,
		}
		// Weighted mean of the children's expected reconstruction errors
		// keeps the distillation data inspectable after pruning.
		if len(n.Left.MeanRE) == len(n.Right.MeanRE) && len(n.Left.MeanRE) > 0 {
			merged.MeanRE = make([]float64, len(n.Left.MeanRE))
			for i := range merged.MeanRE {
				merged.MeanRE[i] = (n.Left.MeanRE[i] + n.Right.MeanRE[i]) / 2
			}
		}
		return merged
	}
	return n
}

// route walks x down the tree to its leaf.
func (t *Tree) route(x []float64) *node {
	n := t.root
	for !n.isLeaf() {
		if x[n.Feature] < n.Split {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// Votes returns the number of trees labelling x malicious.
func (f *Forest) Votes(x []float64) int {
	v := 0
	for _, t := range f.Trees {
		v += t.route(x).Label
	}
	return v
}

// Predict returns the majority vote across trees (ties resolve benign,
// keeping the whitelist conservative).
func (f *Forest) Predict(x []float64) int {
	if 2*f.Votes(x) > len(f.Trees) {
		return 1
	}
	return 0
}

// Score returns the malicious vote fraction in [0, 1], a continuous
// anomaly score for AUC computation.
func (f *Forest) Score(x []float64) float64 {
	if len(f.Trees) == 0 {
		return 0
	}
	return float64(f.Votes(x)) / float64(len(f.Trees))
}

// LabelledLeafRegionsWithin returns tree ti's leaf boxes rooted at an
// explicit outer box (e.g. the full quantised feature domain for rule
// generation). Boundary leaves extend outward exactly as the routing
// comparison against split values does, so rules generated from these
// regions agree with Predict everywhere inside root.
func (f *Forest) LabelledLeafRegionsWithin(ti int, root rules.Box) (boxes []rules.Box, labels []int) {
	var walk func(n *node, box rules.Box)
	walk = func(n *node, box rules.Box) {
		if n.isLeaf() {
			boxes = append(boxes, box)
			labels = append(labels, n.Label)
			return
		}
		left := box.Clone()
		left[n.Feature] = rules.Interval{Lo: box[n.Feature].Lo, Hi: n.Split}
		right := box.Clone()
		right[n.Feature] = rules.Interval{Lo: n.Split, Hi: box[n.Feature].Hi}
		walk(n.Left, left)
		walk(n.Right, right)
	}
	walk(f.Trees[ti].root, root.Clone())
	return boxes, labels
}

// Rules compiles the forest into its labelled rule set over universe
// (§3.2.3): each tree's leaves, rooted at universe so boundary leaves
// extend outward as routing does, feed the vote-aware generator, whose
// rules therefore agree with Predict everywhere inside universe.
func (f *Forest) Rules(universe rules.Box, opts rules.GenOptions) (*rules.RuleSet, error) {
	leaves := make([][]rules.Box, len(f.Trees))
	labels := make([][]int, len(f.Trees))
	for ti := range f.Trees {
		leaves[ti], labels[ti] = f.LabelledLeafRegionsWithin(ti, universe)
	}
	return rules.GenerateVoted(universe, leaves, labels, opts)
}

// Bounds returns the training bounding box of tree ti.
func (f *Forest) Bounds(ti int) rules.Box { return f.Trees[ti].bounds }

// NumLeaves returns the total leaf count across trees.
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

// TrainedOptions returns the options the forest was trained with.
func (f *Forest) TrainedOptions() Options { return f.opts }
