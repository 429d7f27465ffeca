package iguard

import (
	"encoding/json"
	"fmt"
	"io"

	"iguard/internal/core"
	"iguard/internal/features"
	"iguard/internal/rules"
)

// modelFormat is the saved-model format this build writes. History:
//
//	1 — original layout (no format field): config, preprocess, rules,
//	    optional forest.
//	2 — adds the explicit "format" field; runtime-only config knobs
//	    (Parallelism, validation data) are no longer serialised.
//
// Load accepts formats 1 through modelFormat.
const modelFormat = 2

// savedModel is the serialised deployment artefact: the feature
// pipeline, the labelled rule set, and (since the distilled forest
// serialises) the full forest — so loaded detectors keep forest-grade
// classification and vote scores. The autoencoder ensemble remains a
// training-time object.
type savedModel struct {
	Format int                  `json:"format"`
	Config Config               `json:"config"`
	Prep   *features.Preprocess `json:"preprocess"`
	Rules  *rules.RuleSet       `json:"rules"`
	Forest *core.Forest         `json:"forest,omitempty"`
}

// Save serialises the detector's deployable state as JSON (format 2).
func (d *Detector) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(savedModel{Format: modelFormat, Config: d.cfg, Prep: d.prep, Rules: d.ruleSet, Forest: d.forest})
}

// Load restores a detector from Save's output. It reads formats 1
// through 2; a model without a "format" field is format 1. Models that
// carry the distilled forest classify exactly as the original; older
// rule-only models fall back to rule matching (equivalent up to the
// consistency metric C). Unknown (newer) formats return a descriptive
// error instead of misreading the payload.
func Load(r io.Reader) (*Detector, error) {
	var m savedModel
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("iguard: load: %w", err)
	}
	if m.Format == 0 {
		m.Format = 1
	}
	if m.Format < 1 || m.Format > modelFormat {
		return nil, fmt.Errorf("iguard: load: model format %d not supported (this build reads formats 1-%d)", m.Format, modelFormat)
	}
	if m.Prep == nil || m.Rules == nil {
		return nil, fmt.Errorf("iguard: load: missing preprocess or rules")
	}
	d := &Detector{cfg: m.Config, prep: m.Prep, ruleSet: m.Rules, forest: m.Forest}
	d.compiled = m.Prep.Compile(m.Rules, m.Config.QuantBits)
	return d, nil
}

// RuleBased reports whether the detector classifies via rules only
// (a loaded model) rather than the in-memory forest.
func (d *Detector) RuleBased() bool { return d.forest == nil }
