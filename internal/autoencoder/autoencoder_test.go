package autoencoder

import (
	"math"
	"testing"

	"iguard/internal/mathx"
)

// benignCloud draws n samples from a correlated low-dimensional manifold
// embedded in dim dimensions — a stand-in for benign flow features.
func benignCloud(seed int64, n, dim int) [][]float64 {
	r := mathx.NewRand(seed)
	out := make([][]float64, n)
	for i := range out {
		a, b := r.Float64(), r.Float64()
		v := make([]float64, dim)
		for j := range v {
			switch j % 3 {
			case 0:
				v[j] = a + 0.02*r.NormFloat64()
			case 1:
				v[j] = b + 0.02*r.NormFloat64()
			default:
				v[j] = 0.5*(a+b) + 0.02*r.NormFloat64()
			}
		}
		out[i] = v
	}
	return out
}

// anomalyCloud draws n samples far off the benign manifold.
func anomalyCloud(seed int64, n, dim int) [][]float64 {
	r := mathx.NewRand(seed)
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = 2 + r.Float64() // outside the [0,1] manifold
		}
		out[i] = v
	}
	return out
}

func trainOpts(seed int64) TrainOptions {
	return TrainOptions{Epochs: 40, BatchSize: 32, LR: 0.005, Rand: mathx.NewRand(seed)}
}

func testSeparates(t *testing.T, m Model) {
	t.Helper()
	dim := 6
	benign := benignCloud(1, 400, dim)
	m.Fit(benign, trainOpts(2))
	benignTest := benignCloud(3, 50, dim)
	attack := anomalyCloud(4, 50, dim)
	be, ae := 0.0, 0.0
	for _, x := range benignTest {
		be += m.ReconstructionError(x)
	}
	for _, x := range attack {
		ae += m.ReconstructionError(x)
	}
	be /= 50
	ae /= 50
	if ae <= 2*be {
		t.Errorf("%s: attack RE %v not well above benign RE %v", m.Name(), ae, be)
	}
}

func TestSymmetricAESeparates(t *testing.T) {
	r := mathx.NewRand(10)
	testSeparates(t, NewSymmetric(r, 6))
}

func TestMagnifierSeparates(t *testing.T) {
	r := mathx.NewRand(11)
	testSeparates(t, NewMagnifier(r, 6))
}

func TestVAESeparates(t *testing.T) {
	r := mathx.NewRand(12)
	testSeparates(t, NewVAE(r, 6, 2))
}

func TestModelNames(t *testing.T) {
	r := mathx.NewRand(1)
	if NewSymmetric(r, 4).Name() != "AE" {
		t.Error("symmetric name")
	}
	if NewMagnifier(r, 4).Name() != "Magnifier" {
		t.Error("magnifier name")
	}
	if NewVAE(r, 4, 2).Name() != "VAE" {
		t.Error("vae name")
	}
}

func TestReconstructionErrorDimensionPanic(t *testing.T) {
	r := mathx.NewRand(1)
	ae := NewSymmetric(r, 4)
	defer func() {
		if recover() == nil {
			t.Error("want panic on wrong dimension")
		}
	}()
	ae.ReconstructionError([]float64{1, 2})
}

func TestEnsemblePredictAndVote(t *testing.T) {
	dim := 6
	r := mathx.NewRand(20)
	e := NewEnsemble(NewSymmetric(r, dim), NewMagnifier(r, dim))
	if len(e.Members) != 2 {
		t.Fatalf("members = %d", len(e.Members))
	}
	for _, m := range e.Members {
		if math.Abs(m.Weight-0.5) > 1e-12 {
			t.Errorf("weight = %v, want 0.5", m.Weight)
		}
	}
	benign := benignCloud(21, 400, dim)
	e.Fit(benign, trainOpts(22))
	e.Calibrate(benignCloud(23, 100, dim), 0.95)
	for i, m := range e.Members {
		if m.Threshold <= 0 {
			t.Errorf("member %d threshold = %v, want > 0", i, m.Threshold)
		}
	}
	// Benign samples mostly predicted 0, anomalies mostly 1.
	benignHits, attackHits := 0, 0
	benignTest := benignCloud(24, 40, dim)
	attackTest := anomalyCloud(25, 40, dim)
	for _, x := range benignTest {
		benignHits += e.Predict(x)
	}
	for _, x := range attackTest {
		attackHits += e.Predict(x)
	}
	if benignHits > 8 {
		t.Errorf("benign false positives = %d/40", benignHits)
	}
	if attackHits < 36 {
		t.Errorf("attack detections = %d/40", attackHits)
	}
}

func TestEnsembleVoteBounds(t *testing.T) {
	dim := 4
	r := mathx.NewRand(30)
	e := NewEnsemble(NewSymmetric(r, dim), NewSymmetric(r, dim), NewSymmetric(r, dim))
	x := []float64{0.1, 0.2, 0.3, 0.4}
	v := e.Vote(x)
	if v < 0 || v > 1+1e-9 {
		t.Errorf("vote = %v outside [0,1]", v)
	}
}

func TestEmptyEnsemble(t *testing.T) {
	e := NewEnsemble()
	if got := e.Predict([]float64{1}); got != 0 {
		t.Errorf("empty ensemble predict = %d, want 0", got)
	}
	if got := e.Score([]float64{1}); got != 0 {
		t.Errorf("empty ensemble score = %v, want 0", got)
	}
}

func TestLabelLeafByMeanRE(t *testing.T) {
	dim := 4
	r := mathx.NewRand(31)
	e := NewEnsemble(NewSymmetric(r, dim), NewSymmetric(r, dim))
	e.Members[0].Threshold = 1.0
	e.Members[1].Threshold = 1.0
	if got := e.LabelLeafByMeanRE([]float64{2, 2}); got != 1 {
		t.Errorf("both above threshold: label = %d, want 1", got)
	}
	if got := e.LabelLeafByMeanRE([]float64{0.5, 0.5}); got != 0 {
		t.Errorf("both below threshold: label = %d, want 0", got)
	}
	// Exactly 0.5 vote mass is NOT > 0.5, so label 0.
	if got := e.LabelLeafByMeanRE([]float64{2, 0.5}); got != 0 {
		t.Errorf("half vote: label = %d, want 0", got)
	}
}

func TestLabelLeafByMeanREPanicsOnLengthMismatch(t *testing.T) {
	r := mathx.NewRand(32)
	e := NewEnsemble(NewSymmetric(r, 4))
	defer func() {
		if recover() == nil {
			t.Error("want panic on RE length mismatch")
		}
	}()
	e.LabelLeafByMeanRE([]float64{1, 2})
}

func TestPerMemberErrorsOrder(t *testing.T) {
	dim := 4
	r := mathx.NewRand(33)
	e := NewEnsemble(NewSymmetric(r, dim), NewMagnifier(r, dim))
	x := []float64{0.1, 0.2, 0.3, 0.4}
	errs := e.PerMemberErrors(x)
	if len(errs) != 2 {
		t.Fatalf("errors length = %d", len(errs))
	}
	for i, m := range e.Members {
		if errs[i] != m.Model.ReconstructionError(x) {
			t.Errorf("member %d error mismatch", i)
		}
	}
}

func TestScoreMonotoneInError(t *testing.T) {
	dim := 6
	r := mathx.NewRand(40)
	e := NewEnsemble(NewMagnifier(r, dim))
	benign := benignCloud(41, 300, dim)
	e.Fit(benign, trainOpts(42))
	e.Calibrate(benignCloud(43, 80, dim), 0.95)
	benignScore := e.Score(benignCloud(44, 1, dim)[0])
	attackScore := e.Score(anomalyCloud(45, 1, dim)[0])
	if attackScore <= benignScore {
		t.Errorf("attack score %v <= benign score %v", attackScore, benignScore)
	}
}

func TestEnsembleFitDeterminism(t *testing.T) {
	build := func() float64 {
		dim := 4
		r := mathx.NewRand(50)
		e := NewEnsemble(NewSymmetric(r, dim))
		e.Fit(benignCloud(51, 100, dim), TrainOptions{Epochs: 5, BatchSize: 16, LR: 0.01, Rand: mathx.NewRand(52)})
		return e.MeanReconstructionError([]float64{0.3, 0.3, 0.3, 0.3})
	}
	if a, b := build(), build(); a != b {
		t.Errorf("ensemble training not deterministic: %v vs %v", a, b)
	}
}

func TestVAEReconstructionImproves(t *testing.T) {
	dim := 6
	r := mathx.NewRand(60)
	v := NewVAE(r, dim, 2)
	benign := benignCloud(61, 300, dim)
	before := 0.0
	for _, x := range benign[:50] {
		before += v.ReconstructionError(x)
	}
	v.Fit(benign, trainOpts(62))
	after := 0.0
	for _, x := range benign[:50] {
		after += v.ReconstructionError(x)
	}
	if after >= before {
		t.Errorf("VAE training did not improve reconstruction: %v -> %v", before/50, after/50)
	}
}

// TestQuantileThresholdsMatchCalibrate pins the threshold grid to
// Calibrate's per-quantile thresholds bit for bit, and checks that
// computing the grid leaves the ensemble's own thresholds alone.
func TestQuantileThresholdsMatchCalibrate(t *testing.T) {
	dim := 6
	e := NewGuide(mathx.NewRand(50), dim)
	e.Fit(benignCloud(51, 200, dim), trainOpts(52))
	calib := benignCloud(53, 90, dim)
	qs := []float64{0, 0.5, 0.9, 0.97, 1}
	grid := e.QuantileThresholds(calib, qs)
	for _, m := range e.Members {
		if m.Threshold != 0 {
			t.Fatalf("QuantileThresholds changed a member threshold to %v", m.Threshold)
		}
	}
	for qi, q := range qs {
		e.Calibrate(calib, q)
		for mi, m := range e.Members {
			errs := e.MemberErrors(calib)[mi]
			if want := mathx.Quantile(errs, q); m.Threshold != want || grid[qi][mi] != want {
				t.Errorf("q=%v member %d: Calibrate %v, grid %v, quantile %v", q, mi, m.Threshold, grid[qi][mi], want)
			}
		}
	}
}

func TestNewGuideWeights(t *testing.T) {
	e := NewGuide(mathx.NewRand(60), 8)
	if len(e.Members) != 2 || e.Members[0].Model.Name() != "Magnifier" || e.Members[1].Model.Name() != "AE" {
		t.Fatalf("guide members = %+v", e.Members)
	}
	if e.Members[0].Weight != 0.6 || e.Members[1].Weight != 0.4 {
		t.Errorf("guide weights = %v, %v; want 0.6, 0.4", e.Members[0].Weight, e.Members[1].Weight)
	}
}
