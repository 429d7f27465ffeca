// Package autoencoder implements the autoencoder family the iGuard paper
// evaluates as guidance candidates (App. A): a plain symmetric
// autoencoder, the asymmetric "Magnifier"-style autoencoder that the
// paper selects, and a variational autoencoder. It also provides the
// weighted ensemble with per-member RMSE thresholds used for
// Autoencoders.predict (§3.2.1).
//
// The original Magnifier (HorusEye, USENIX Security '23) uses dilated
// convolutions over 2-D traffic statistics; switch data planes cannot
// extract those, and the guidance signal iGuard consumes is only the
// scalar reconstruction error over the 13 flow-level features. We
// therefore substitute an asymmetric dense autoencoder (deep encoder,
// shallow decoder), which preserves the behaviour that matters: a tight
// benign manifold giving low benign / high attack reconstruction error.
package autoencoder

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"iguard/internal/mathx"
	"iguard/internal/nn"
	"iguard/internal/parallel"
)

// Model is a trainable reconstruction model producing per-sample
// reconstruction errors (RMSE per the paper's RE_u definition).
type Model interface {
	// Name identifies the model in experiment output.
	Name() string
	// Fit trains on benign feature vectors.
	Fit(x [][]float64, opts TrainOptions)
	// ReconstructionError returns RE(x) = sqrt(mean((AE(x)-x)²)).
	ReconstructionError(x []float64) float64
}

// TrainOptions controls Fit for every model in this package.
type TrainOptions struct {
	Epochs    int
	BatchSize int
	LR        float64
	Rand      *rand.Rand
	// Parallelism bounds the worker count when ensemble members train
	// concurrently (0 selects GOMAXPROCS). Member results are identical
	// for every value: each member's seed is drawn from Rand up front,
	// in member order, before any training starts.
	Parallelism int
	// Stop, when non-nil, is probed between epochs of every member;
	// a true return abandons the remaining epochs (used for context
	// cancellation).
	Stop func() bool
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Epochs <= 0 {
		o.Epochs = 30
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 32
	}
	if o.LR <= 0 {
		o.LR = 0.005
	}
	if o.Rand == nil {
		o.Rand = mathx.NewRand(1)
	}
	return o
}

// Dense is a feed-forward autoencoder over m features.
type Dense struct {
	name string
	net  *nn.Network
	dim  int
}

// NewSymmetric builds the conventional symmetric autoencoder
// m → m/2 → latent → m/2 → m used as the plain "AE" candidate.
func NewSymmetric(r *rand.Rand, dim int) *Dense {
	h := maxInt(dim/2, 2)
	latent := maxInt(dim/4, 2)
	net := nn.NewNetwork(r,
		[]int{dim, h, latent, h, dim},
		[]nn.Activation{nn.Tanh, nn.Tanh, nn.Tanh, nn.Identity},
		nn.DefaultAdam(0.005))
	return &Dense{name: "AE", net: net, dim: dim}
}

// NewMagnifier builds the asymmetric autoencoder standing in for
// Magnifier [15]: a deep encoder (m → 2m → m → m/2 → latent) and a
// single-layer decoder (latent → m). The asymmetry concentrates
// capacity in the encoder exactly as Magnifier does.
func NewMagnifier(r *rand.Rand, dim int) *Dense {
	latent := maxInt(dim/4, 2)
	net := nn.NewNetwork(r,
		[]int{dim, 2 * dim, dim, maxInt(dim/2, 2), latent, dim},
		[]nn.Activation{nn.LeakyReLU, nn.LeakyReLU, nn.LeakyReLU, nn.Tanh, nn.Identity},
		nn.DefaultAdam(0.005))
	return &Dense{name: "Magnifier", net: net, dim: dim}
}

// Name implements Model.
func (d *Dense) Name() string { return d.name }

// Fit implements Model.
func (d *Dense) Fit(x [][]float64, opts TrainOptions) {
	opts = opts.withDefaults()
	d.net.Fit(x, x, nn.FitOptions{Epochs: opts.Epochs, BatchSize: opts.BatchSize, Rand: opts.Rand, Stop: opts.Stop})
}

// Reconstruct returns the autoencoder output for x.
func (d *Dense) Reconstruct(x []float64) []float64 { return d.net.Predict(x) }

// ReconstructionError implements Model.
func (d *Dense) ReconstructionError(x []float64) float64 {
	if len(x) != d.dim {
		panic(fmt.Sprintf("autoencoder: sample has %d features, model expects %d", len(x), d.dim))
	}
	return mathx.RMSE(d.Reconstruct(x), x)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Member pairs an ensemble member with its weight w_u and RMSE threshold
// T_u from §3.2.1.
type Member struct {
	Model     Model
	Weight    float64
	Threshold float64
}

// Ensemble is the paper's weighted autoencoder ensemble:
// predict(x) = 1{ Σ_u w_u · 1{RE_u(x) > T_u} > 0.5 }.
type Ensemble struct {
	Members []Member
}

// NewEnsemble creates an ensemble with uniform weights over the given
// models; thresholds start at zero and should be set by Calibrate.
func NewEnsemble(models ...Model) *Ensemble {
	e := &Ensemble{}
	if len(models) == 0 {
		return e
	}
	w := 1.0 / float64(len(models))
	for _, m := range models {
		e.Members = append(e.Members, Member{Model: m, Weight: w})
	}
	return e
}

// NewGuide builds the guide ensemble iGuard trains (§3.2.1): the
// Magnifier-style autoencoder, which App. A selects, weighted 0.6 so
// its solo vote carries the ensemble, beside a symmetric autoencoder
// weighted 0.4. Both members draw their initial weights from r, in
// that order. Thresholds start at zero; calibrate after Fit.
func NewGuide(r *rand.Rand, dim int) *Ensemble {
	e := NewEnsemble(NewMagnifier(r, dim), NewSymmetric(r, dim))
	e.Members[0].Weight = 0.6
	e.Members[1].Weight = 0.4
	return e
}

// Fit trains every member independently on the benign training set, as
// the paper prescribes, deriving per-member seeds from opts.Rand so the
// members do not share a random stream. Members train concurrently
// under opts.Parallelism; seeds are drawn serially in member order
// first, so results are byte-identical for every worker count (and to
// the historical serial trainer).
func (e *Ensemble) Fit(x [][]float64, opts TrainOptions) {
	opts = opts.withDefaults()
	memberOpts := make([]TrainOptions, len(e.Members))
	for i := range e.Members {
		memberOpts[i] = opts
		memberOpts[i].Rand = mathx.NewRand(opts.Rand.Int63())
	}
	parallel.Do(opts.Parallelism, len(e.Members), func(i int) {
		e.Members[i].Model.Fit(x, memberOpts[i])
	})
}

// FitContext is Fit with cooperative cancellation: members abandon
// their remaining epochs once ctx is done and FitContext returns
// ctx.Err(). A nil error means every member trained to completion.
func (e *Ensemble) FitContext(ctx context.Context, x [][]float64, opts TrainOptions) error {
	opts.Stop = func() bool { return ctx.Err() != nil }
	e.Fit(x, opts)
	return ctx.Err()
}

// MemberErrors returns every member's reconstruction errors over x
// (outer index: member, matching Members order).
func (e *Ensemble) MemberErrors(x [][]float64) [][]float64 {
	out := make([][]float64, len(e.Members))
	for i := range e.Members {
		res := make([]float64, len(x))
		for j, v := range x {
			res[j] = e.Members[i].Model.ReconstructionError(v)
		}
		out[i] = res
	}
	return out
}

// Calibrate sets each member's RMSE threshold T_u to the given quantile
// of its reconstruction errors over benign validation samples. The paper
// grid-searches T; a high benign quantile (e.g. 0.95) is the standard
// operating point.
func (e *Ensemble) Calibrate(benign [][]float64, quantile float64) {
	e.SetThresholds(e.QuantileThresholds(benign, []float64{quantile})[0])
}

// QuantileThresholds returns, for every quantile in qs, the per-member
// thresholds Calibrate(benign, q) would install, leaving the ensemble
// untouched: one MemberErrors pass over benign and one sort per member
// serve the whole threshold grid.
func (e *Ensemble) QuantileThresholds(benign [][]float64, qs []float64) [][]float64 {
	errs := e.MemberErrors(benign)
	for _, res := range errs {
		sort.Float64s(res)
	}
	out := make([][]float64, len(qs))
	for qi, q := range qs {
		out[qi] = make([]float64, len(errs))
		for mi, res := range errs {
			out[qi][mi] = mathx.QuantileSorted(res, q)
		}
	}
	return out
}

// SetThresholds installs per-member RMSE thresholds (same order as
// Members) — the direct form of Calibrate for callers that computed
// quantiles themselves, e.g. from a shared sorted error slice.
func (e *Ensemble) SetThresholds(ths []float64) {
	if len(ths) != len(e.Members) {
		panic(fmt.Sprintf("autoencoder: %d thresholds for %d members", len(ths), len(e.Members)))
	}
	for i := range e.Members {
		e.Members[i].Threshold = ths[i]
	}
}

// WithThresholds returns a calibrated shallow copy of the ensemble:
// the trained models are shared (inference on them is stateless and
// race-free), while weights and thresholds are copied. Grid-search
// candidates evaluating different calibration quantiles concurrently
// each take their own view instead of re-calibrating the shared
// ensemble in place.
func (e *Ensemble) WithThresholds(ths []float64) *Ensemble {
	if len(ths) != len(e.Members) {
		panic(fmt.Sprintf("autoencoder: %d thresholds for %d members", len(ths), len(e.Members)))
	}
	view := &Ensemble{Members: append([]Member(nil), e.Members...)}
	for i := range view.Members {
		view.Members[i].Threshold = ths[i]
	}
	return view
}

// Vote returns Σ_u w_u · 1{RE_u(x) > T_u}, the ensemble's weighted vote
// mass in [0, Σw].
func (e *Ensemble) Vote(x []float64) float64 {
	v := 0.0
	for _, m := range e.Members {
		if m.Model.ReconstructionError(x) > m.Threshold {
			v += m.Weight
		}
	}
	return v
}

// Predict implements Autoencoders.predict(x) from §3.2.1: 1 when the
// weighted vote exceeds 0.5, else 0.
func (e *Ensemble) Predict(x []float64) int {
	if e.Vote(x) > 0.5 {
		return 1
	}
	return 0
}

// Score returns a continuous anomaly score for AUC computation: the
// weighted mean of threshold-normalised reconstruction errors, so that
// 1.0 sits exactly at the decision surface of a single-member ensemble.
func (e *Ensemble) Score(x []float64) float64 {
	s := 0.0
	for _, m := range e.Members {
		t := m.Threshold
		if t <= 0 {
			t = 1e-9
		}
		s += m.Weight * (m.Model.ReconstructionError(x) / t)
	}
	return s
}

// MeanReconstructionError returns the weighted mean RE over members,
// used when embedding expected reconstruction errors into leaves.
func (e *Ensemble) MeanReconstructionError(x []float64) float64 {
	s := 0.0
	for _, m := range e.Members {
		s += m.Weight * m.Model.ReconstructionError(x)
	}
	return s
}

// LabelLeafByMeanRE implements Eq. 6: given the per-member expected
// reconstruction errors of a leaf (same order as Members), it returns 1
// when Σ w_u·1{RE_leaf_u > T_u} > 0.5.
func (e *Ensemble) LabelLeafByMeanRE(meanRE []float64) int {
	if len(meanRE) != len(e.Members) {
		panic(fmt.Sprintf("autoencoder: %d leaf REs for %d members", len(meanRE), len(e.Members)))
	}
	v := 0.0
	for i, m := range e.Members {
		if meanRE[i] > m.Threshold {
			v += m.Weight
		}
	}
	if v > 0.5 {
		return 1
	}
	return 0
}

// PerMemberErrors returns RE_u(x) for every member in order.
func (e *Ensemble) PerMemberErrors(x []float64) []float64 {
	out := make([]float64, len(e.Members))
	for i, m := range e.Members {
		out[i] = m.Model.ReconstructionError(x)
	}
	return out
}
