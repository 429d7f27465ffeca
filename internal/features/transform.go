package features

import (
	"fmt"
	"math"

	"iguard/internal/rules"
)

// logEps keeps log10 defined at zero.
const logEps = 1e-6

// Preprocess is the model-side feature pipeline: an optional per-feature
// log10 transform for heavy-tailed features (inter-packet delays span
// microseconds to seconds; linear min-max scaling would squash the
// microsecond structure floods live in), followed by min-max scaling.
// Both steps are monotone per feature, so axis-aligned rule boxes in
// model space map back to raw-feature boxes for switch installation.
type Preprocess struct {
	LogMask []bool
	Scaler  *Scaler
	// RawMin/RawMax record the raw-domain training range per feature
	// (before the log), used when sizing switch quantisers.
	RawMin, RawMax []float64
}

// NewFLPreprocess returns the preprocessor for the 13 FL features:
// log10 on total size, the five IPD statistics and the duration.
func NewFLPreprocess() *Preprocess {
	mask := make([]bool, FLDim)
	mask[FLTotalSize] = true
	mask[FLAvgIPD] = true
	mask[FLMinIPD] = true
	mask[FLVarIPD] = true
	mask[FLStdIPD] = true
	mask[FLMaxIPD] = true
	mask[FLDuration] = true
	return &Preprocess{LogMask: mask}
}

// NewPLPreprocess returns the (purely linear) preprocessor for the 4 PL
// features.
func NewPLPreprocess() *Preprocess {
	return &Preprocess{LogMask: make([]bool, PLDim)}
}

// forward applies the log step to one raw value of feature i.
func (p *Preprocess) forward(i int, v float64) float64 {
	if p.LogMask[i] {
		if v < 0 {
			v = 0
		}
		return math.Log10(v + logEps)
	}
	return v
}

// inverse undoes the log step.
func (p *Preprocess) inverse(i int, v float64) float64 {
	if p.LogMask[i] {
		return math.Pow(10, v) - logEps
	}
	return v
}

// Fit learns the scaler from raw training vectors.
func (p *Preprocess) Fit(raw [][]float64) {
	if len(raw) == 0 {
		p.Scaler = &Scaler{}
		return
	}
	dim := len(raw[0])
	if len(p.LogMask) != dim {
		panic(fmt.Sprintf("features: preprocess mask has %d features, data has %d", len(p.LogMask), dim))
	}
	p.RawMin = make([]float64, dim)
	p.RawMax = make([]float64, dim)
	copy(p.RawMin, raw[0])
	copy(p.RawMax, raw[0])
	logged := make([][]float64, len(raw))
	for r, row := range raw {
		lr := make([]float64, dim)
		for i, v := range row {
			if v < p.RawMin[i] {
				p.RawMin[i] = v
			}
			if v > p.RawMax[i] {
				p.RawMax[i] = v
			}
			lr[i] = p.forward(i, v)
		}
		logged[r] = lr
	}
	p.Scaler = FitScaler(logged)
}

// Transform maps one raw vector into model space.
func (p *Preprocess) Transform(raw []float64) []float64 {
	logged := make([]float64, len(raw))
	for i, v := range raw {
		logged[i] = p.forward(i, v)
	}
	return p.Scaler.Transform(logged)
}

// TransformAll maps a batch.
func (p *Preprocess) TransformAll(raw [][]float64) [][]float64 {
	out := make([][]float64, len(raw))
	for i, row := range raw {
		out[i] = p.Transform(row)
	}
	return out
}

// FitTransform fits on raw and returns its transform.
func (p *Preprocess) FitTransform(raw [][]float64) [][]float64 {
	p.Fit(raw)
	return p.TransformAll(raw)
}

// InverseEdge maps a model-space coordinate of feature i back to the
// raw domain (monotone, so rule-box edges map to rule-box edges).
func (p *Preprocess) InverseEdge(i int, v float64) float64 {
	return p.inverse(i, p.Scaler.Min[i]+v*(p.Scaler.Max[i]-p.Scaler.Min[i]))
}

// The model-space universe rules are generated over: training data
// scales into [0, 1], so this box contains every tree's bounds while
// leaving the region beyond it default-malicious.
const (
	universeLo = -0.25
	universeHi = 1.75
)

// Universe returns the dim-dimensional model-space rule universe.
func Universe(dim int) rules.Box { return rules.FullBox(dim, universeLo, universeHi) }

// Compile maps a model-space rule set back to raw feature units (the
// preprocessing is monotone per feature, so boxes map to boxes) and
// quantises it at bits per feature for TCAM installation. The quantiser
// spans the raw training range with linear margins; rule edges beyond
// the quantiser clamp to the edge codes, matching the forest's routing
// semantics (boundary leaves extend outward). Constant features (zero
// training span) carry no information: their intervals widen to the
// full quantised range.
func (p *Preprocess) Compile(rs *rules.RuleSet, bits int) *rules.CompiledRuleSet {
	dim := rs.Dim
	rawMin := make([]float64, dim)
	rawMax := make([]float64, dim)
	for i := 0; i < dim; i++ {
		span := p.RawMax[i] - p.RawMin[i]
		if span <= 0 {
			rawMin[i] = p.RawMin[i] - 1
			rawMax[i] = p.RawMin[i] + 1
			continue
		}
		// A quarter span of margin below (many features are bounded at
		// 0 anyway), two spans above for attack headroom.
		rawMin[i] = p.RawMin[i] - 0.25*span
		rawMax[i] = p.RawMax[i] + 2*span
	}
	raw := &rules.RuleSet{Dim: dim, DefaultLabel: rs.DefaultLabel}
	for _, r := range rs.Rules {
		box := make(rules.Box, dim)
		for i, iv := range r.Box {
			if p.RawMax[i]-p.RawMin[i] <= 0 {
				box[i] = rules.Interval{Lo: rawMin[i], Hi: rawMax[i]}
				continue
			}
			box[i] = rules.Interval{Lo: p.InverseEdge(i, iv.Lo), Hi: p.InverseEdge(i, iv.Hi)}
		}
		raw.Rules = append(raw.Rules, rules.Rule{Box: box, Label: r.Label})
	}
	return rules.Compile(raw, rules.NewQuantizer(rawMin, rawMax, bits))
}

// Dim returns the fitted feature count.
func (p *Preprocess) Dim() int { return len(p.LogMask) }
