package features

import (
	"math"
	"testing"
	"testing/quick"

	"iguard/internal/rules"
)

func TestPreprocessLogRoundTrip(t *testing.T) {
	p := &Preprocess{LogMask: []bool{false, true}}
	raw := [][]float64{{0, 0.001}, {10, 0.01}, {50, 0.1}, {100, 1}}
	model := p.FitTransform(raw)
	// Training data maps into [0, 1].
	for _, row := range model {
		for j, v := range row {
			if v < -1e-9 || v > 1+1e-9 {
				t.Fatalf("feature %d = %v outside [0,1]", j, v)
			}
		}
	}
	// InverseEdge undoes Transform at the training points.
	for i, row := range model {
		for j, v := range row {
			back := p.InverseEdge(j, v)
			if math.Abs(back-raw[i][j]) > 1e-6*(1+math.Abs(raw[i][j])) {
				t.Errorf("inverse(%d,%d) = %v, want %v", i, j, back, raw[i][j])
			}
		}
	}
}

func TestPreprocessLogSpreadsSmallValues(t *testing.T) {
	// Without the log, 150µs and 25ms collapse after min-max scaling
	// over a [0, 2s] range; with it they separate clearly.
	p := &Preprocess{LogMask: []bool{true}}
	p.Fit([][]float64{{0.0001}, {2.0}})
	a := p.Transform([]float64{0.00015})[0]
	b := p.Transform([]float64{0.025})[0]
	if b-a < 0.3 {
		t.Errorf("log scaling separation = %v, want > 0.3", b-a)
	}
}

func TestPreprocessMonotone(t *testing.T) {
	p := &Preprocess{LogMask: []bool{true}}
	p.Fit([][]float64{{0.001}, {10}})
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if a > b {
			a, b = b, a
		}
		return p.Transform([]float64{a})[0] <= p.Transform([]float64{b})[0]+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPreprocessNegativeValuesClampToZeroForLog(t *testing.T) {
	p := &Preprocess{LogMask: []bool{true}}
	p.Fit([][]float64{{0}, {1}})
	if v := p.Transform([]float64{-5})[0]; math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("negative input produced %v", v)
	}
}

func TestPreprocessDimMismatchPanics(t *testing.T) {
	p := &Preprocess{LogMask: []bool{false}}
	defer func() {
		if recover() == nil {
			t.Error("want panic on dim mismatch")
		}
	}()
	p.Fit([][]float64{{1, 2}})
}

func TestPreprocessEmptyFit(t *testing.T) {
	p := NewPLPreprocess()
	p.Fit(nil)
	if p.Scaler == nil {
		t.Error("scaler not initialised")
	}
}

func TestFLPreprocessMask(t *testing.T) {
	p := NewFLPreprocess()
	if p.Dim() != FLDim {
		t.Fatalf("dim = %d", p.Dim())
	}
	// Heavy-tailed features log-scale; counts and sizes stay linear.
	wantLog := map[int]bool{
		FLTotalSize: true, FLAvgIPD: true, FLMinIPD: true,
		FLVarIPD: true, FLStdIPD: true, FLMaxIPD: true, FLDuration: true,
	}
	for i := 0; i < FLDim; i++ {
		if p.LogMask[i] != wantLog[i] {
			t.Errorf("feature %d (%s): log = %v", i, FLNames[i], p.LogMask[i])
		}
	}
}

func TestPLPreprocessAllLinear(t *testing.T) {
	p := NewPLPreprocess()
	for i, m := range p.LogMask {
		if m {
			t.Errorf("PL feature %d log-scaled", i)
		}
	}
}

func TestPreprocessRawRangeRecorded(t *testing.T) {
	p := &Preprocess{LogMask: []bool{false, true}}
	p.Fit([][]float64{{5, 0.1}, {15, 10}})
	if p.RawMin[0] != 5 || p.RawMax[0] != 15 {
		t.Errorf("raw range f0 = [%v, %v]", p.RawMin[0], p.RawMax[0])
	}
	if p.RawMin[1] != 0.1 || p.RawMax[1] != 10 {
		t.Errorf("raw range f1 = [%v, %v]", p.RawMin[1], p.RawMax[1])
	}
}

func TestPreprocessCompileAgreesWithFloatRules(t *testing.T) {
	// A simple rule set over 2 features with a log-scaled second feature.
	prep := &Preprocess{LogMask: []bool{false, true}}
	raw := [][]float64{{0, 0.001}, {10, 0.01}, {20, 0.1}, {30, 1}, {40, 10}}
	prep.Fit(raw)
	model := prep.TransformAll(raw)

	// Whitelist the middle of model space.
	box := rules.NewBox([]float64{0.2, 0.2}, []float64{0.8, 0.8})
	rs := &rules.RuleSet{Rules: []rules.Rule{{Box: box, Label: 0}}, Dim: 2, DefaultLabel: 1}
	compiled := prep.Compile(rs, 14)

	for i, m := range model {
		want := rs.Match(m)
		got := compiled.Match(raw[i])
		if got != want {
			t.Errorf("sample %d: compiled=%d float=%d", i, got, want)
		}
	}
}

func TestPreprocessCompileConstantFeature(t *testing.T) {
	prep := &Preprocess{LogMask: []bool{false, false}}
	prep.Fit([][]float64{{5, 1}, {5, 2}})
	box := rules.NewBox([]float64{-0.25, 0}, []float64{1.75, 0.5})
	rs := &rules.RuleSet{Rules: []rules.Rule{{Box: box, Label: 0}}, Dim: 2, DefaultLabel: 1}
	compiled := prep.Compile(rs, 8)
	// Constant feature is uninformative: match decided by feature 2.
	if got := compiled.Match([]float64{5, 1.2}); got != 0 {
		t.Errorf("in-range match = %d", got)
	}
	if got := compiled.Match([]float64{5, 1.9}); got != 1 {
		t.Errorf("out-of-range match = %d", got)
	}
}
