package iforest

import (
	"math"
	"testing"
	"testing/quick"

	"iguard/internal/mathx"
)

// cluster draws n points around center with the given spread.
func cluster(seed int64, n, dim int, center, spread float64) [][]float64 {
	r := mathx.NewRand(seed)
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = center + spread*r.NormFloat64()
		}
		out[i] = v
	}
	return out
}

func TestCFactor(t *testing.T) {
	if C(0) != 0 || C(1) != 0 {
		t.Error("C(<=1) should be 0")
	}
	if C(2) != 1 {
		t.Errorf("C(2) = %v, want 1", C(2))
	}
	// c(n) grows like 2·ln(n); sanity check a known value:
	// c(256) ≈ 2(ln(255)+0.5772) − 2·255/256 ≈ 10.24.
	if got := C(256); math.Abs(got-10.24) > 0.05 {
		t.Errorf("C(256) = %v, want ~10.24", got)
	}
	// Monotone increasing.
	prev := 0.0
	for n := 2; n < 1000; n *= 2 {
		if c := C(n); c <= prev {
			t.Errorf("C not monotone at n=%d", n)
		} else {
			prev = c
		}
	}
}

func TestFitPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on empty training set")
		}
	}()
	Fit(nil, DefaultOptions())
}

func TestAnomalyScoresSeparate(t *testing.T) {
	benign := cluster(1, 500, 4, 0.5, 0.05)
	opts := DefaultOptions()
	opts.Trees = 50
	opts.SubSample = 128
	f := Fit(benign, opts)

	benignScores, attackScores := 0.0, 0.0
	benignTest := cluster(2, 50, 4, 0.5, 0.05)
	attackTest := cluster(3, 50, 4, 3.0, 0.05)
	for _, x := range benignTest {
		benignScores += f.Score(x)
	}
	for _, x := range attackTest {
		attackScores += f.Score(x)
	}
	benignScores /= 50
	attackScores /= 50
	if attackScores <= benignScores {
		t.Errorf("attack mean score %v <= benign %v", attackScores, benignScores)
	}
	if attackScores < 0.6 {
		t.Errorf("far outliers should score >= 0.6, got %v", attackScores)
	}
}

func TestScoreBounds(t *testing.T) {
	benign := cluster(5, 200, 3, 0, 1)
	f := Fit(benign, Options{Trees: 20, SubSample: 64, Seed: 5})
	fn := func(a, b, c float64) bool {
		s := f.Score([]float64{a, b, c})
		return s > 0 && s < 1
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExpectedPathLengthShorterForOutliers(t *testing.T) {
	benign := cluster(7, 500, 2, 0, 0.1)
	f := Fit(benign, Options{Trees: 50, SubSample: 128, Seed: 7})
	inlier := f.ExpectedPathLength([]float64{0, 0})
	outlier := f.ExpectedPathLength([]float64{5, 5})
	if outlier >= inlier {
		t.Errorf("outlier path %v >= inlier path %v", outlier, inlier)
	}
}

func TestCalibrateThreshold(t *testing.T) {
	benign := cluster(9, 400, 3, 0.5, 0.05)
	f := Fit(benign, Options{Trees: 30, SubSample: 128, Seed: 9})
	// Calibration set: 90% benign, 10% anomalies.
	calib := append(cluster(10, 90, 3, 0.5, 0.05), cluster(11, 10, 3, 3, 0.05)...)
	f.CalibrateThreshold(calib, 0.1)
	// Roughly 10% of the calibration set should be flagged.
	flagged := 0
	for _, x := range calib {
		flagged += f.Predict(x)
	}
	if flagged < 5 || flagged > 20 {
		t.Errorf("flagged = %d/100, want ~10", flagged)
	}
	// Empty calibration is a no-op.
	before := f.Threshold
	f.CalibrateThreshold(nil, 0.1)
	if f.Threshold != before {
		t.Error("empty calibration changed threshold")
	}
}

func TestPredictUsesThreshold(t *testing.T) {
	benign := cluster(13, 200, 2, 0, 0.1)
	f := Fit(benign, Options{Trees: 20, SubSample: 64, Seed: 13})
	f.Threshold = 0.0
	if f.Predict([]float64{0, 0}) != 1 {
		t.Error("threshold 0 should flag everything")
	}
	f.Threshold = 1.1
	if f.Predict([]float64{100, 100}) != 0 {
		t.Error("threshold > 1 should flag nothing")
	}
}

func TestDeterminism(t *testing.T) {
	benign := cluster(15, 200, 3, 0, 1)
	a := Fit(benign, Options{Trees: 10, SubSample: 64, Seed: 42})
	b := Fit(benign, Options{Trees: 10, SubSample: 64, Seed: 42})
	probe := []float64{0.3, -0.2, 0.9}
	if a.Score(probe) != b.Score(probe) {
		t.Error("same seed produced different forests")
	}
	c := Fit(benign, Options{Trees: 10, SubSample: 64, Seed: 43})
	if a.Score(probe) == c.Score(probe) {
		t.Log("different seeds produced identical scores (possible but unlikely)")
	}
}

func TestLeafRegionsTileBounds(t *testing.T) {
	benign := cluster(17, 300, 2, 0, 1)
	f := Fit(benign, Options{Trees: 5, SubSample: 64, Seed: 17})
	r := mathx.NewRand(18)
	for ti := range f.Trees {
		regions := f.LeafRegionsWithin(ti, f.Trees[ti].bounds)
		if len(regions) == 0 {
			t.Fatalf("tree %d has no leaf regions", ti)
		}
		bounds := f.Trees[ti].bounds
		// Random points inside the tree bounds must fall in exactly one
		// leaf region.
		for trial := 0; trial < 50; trial++ {
			p := make([]float64, 2)
			for j := range p {
				p[j] = bounds[j].Lo + r.Float64()*(bounds[j].Hi-bounds[j].Lo)
			}
			hits := 0
			for _, reg := range regions {
				if reg.Contains(p) {
					hits++
				}
			}
			if hits != 1 {
				t.Fatalf("tree %d: point %v in %d regions, want 1", ti, p, hits)
			}
		}
	}
}

func TestLeafRegionVolumesSumToBounds(t *testing.T) {
	benign := cluster(19, 200, 2, 0, 1)
	f := Fit(benign, Options{Trees: 3, SubSample: 32, Seed: 19})
	for ti := range f.Trees {
		total := 0.0
		for _, reg := range f.LeafRegionsWithin(ti, f.Trees[ti].bounds) {
			total += reg.Volume()
		}
		want := f.Trees[ti].bounds.Volume()
		if math.Abs(total-want)/want > 1e-9 {
			t.Errorf("tree %d: leaf volumes %v != bounds volume %v", ti, total, want)
		}
	}
}

func TestSplitValuesSortedAndDistinct(t *testing.T) {
	benign := cluster(21, 300, 3, 0, 1)
	f := Fit(benign, Options{Trees: 10, SubSample: 64, Seed: 21})
	splits := f.SplitValues()
	if len(splits) != 3 {
		t.Fatalf("split features = %d, want 3", len(splits))
	}
	for q, vals := range splits {
		for i := 1; i < len(vals); i++ {
			if vals[i] <= vals[i-1] {
				t.Errorf("feature %d splits not strictly increasing at %d", q, i)
			}
		}
	}
}

func TestMaxDepthBounded(t *testing.T) {
	benign := cluster(23, 500, 3, 0, 1)
	psi := 128
	f := Fit(benign, Options{Trees: 20, SubSample: psi, Seed: 23})
	limit := int(math.Ceil(math.Log2(float64(psi))))
	if d := f.MaxDepth(); d > limit {
		t.Errorf("max depth %d exceeds ceil(log2(ψ)) = %d", d, limit)
	}
}

func TestNumLeavesPositive(t *testing.T) {
	benign := cluster(25, 100, 2, 0, 1)
	f := Fit(benign, Options{Trees: 5, SubSample: 32, Seed: 25})
	if f.NumLeaves() < 5 {
		t.Errorf("NumLeaves = %d, want >= 5", f.NumLeaves())
	}
}

func TestConstantFeatureData(t *testing.T) {
	// All samples identical: trees must degenerate to single leaves and
	// scoring must not panic.
	x := make([][]float64, 50)
	for i := range x {
		x[i] = []float64{1, 2, 3}
	}
	f := Fit(x, Options{Trees: 5, SubSample: 32, Seed: 27})
	s := f.Score([]float64{1, 2, 3})
	if math.IsNaN(s) || s <= 0 || s >= 1 {
		t.Errorf("degenerate score = %v", s)
	}
}

func TestSubSampleLargerThanData(t *testing.T) {
	x := cluster(29, 20, 2, 0, 1)
	f := Fit(x, Options{Trees: 5, SubSample: 256, Seed: 29})
	if f.SubSample != 20 {
		t.Errorf("SubSample = %d, want clamped to 20", f.SubSample)
	}
}

// TestFitParallelismInvariance pins that the forest is identical for
// every worker count: per-tree seeds are drawn serially in tree order
// before the parallel fan-out.
func TestFitParallelismInvariance(t *testing.T) {
	x := cluster(61, 400, 4, 0.5, 0.1)
	probes := cluster(62, 20, 4, 0.5, 0.4)
	opts := DefaultOptions()
	opts.Trees = 20
	opts.SubSample = 128
	opts.Seed = 61
	score := func(workers int) []float64 {
		o := opts
		o.Parallelism = workers
		f := Fit(x, o)
		out := make([]float64, len(probes))
		for i, p := range probes {
			out[i] = f.Score(p)
		}
		return out
	}
	want := score(1)
	for _, p := range []int{2, 4, 8} {
		got := score(p)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Parallelism=%d: score[%d] = %v, want %v", p, i, got[i], want[i])
			}
		}
	}
}
