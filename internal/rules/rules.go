package rules

import (
	"encoding/json"
	"fmt"
	"io"
)

// Rule is one hypercube with an inferred class label (0 benign,
// 1 malicious). Whitelist rules are the label-0 rules.
type Rule struct {
	Box   Box `json:"box"`
	Label int `json:"label"`
}

// RuleSet is an ordered list of non-overlapping rules plus the default
// label applied when no rule matches. For whitelist deployments the
// default is 1 (malicious): traffic must match a benign hypercube to be
// whitelisted.
type RuleSet struct {
	Rules        []Rule `json:"rules"`
	Dim          int    `json:"dim"`
	DefaultLabel int    `json:"default_label"`
}

// Match returns the label of the first rule containing x, or the
// default label when none does.
func (rs *RuleSet) Match(x []float64) int {
	for i := range rs.Rules {
		if rs.Rules[i].Box.Contains(x) {
			return rs.Rules[i].Label
		}
	}
	return rs.DefaultLabel
}

// Len returns the number of rules.
func (rs *RuleSet) Len() int { return len(rs.Rules) }

// Whitelist returns only the benign (label 0) rules — the set installed
// on the switch.
func (rs *RuleSet) Whitelist() []Rule {
	var out []Rule
	for _, r := range rs.Rules {
		if r.Label == 0 {
			out = append(out, r)
		}
	}
	return out
}

// Merge merges the rule sets (e.g. the FL rules with the early-packet PL
// rules from §3.3.1); the receiver's rules take precedence on overlap
// because Match scans in order.
func (rs *RuleSet) Merge(other *RuleSet) *RuleSet {
	out := &RuleSet{Dim: rs.Dim, DefaultLabel: rs.DefaultLabel}
	out.Rules = append(out.Rules, rs.Rules...)
	out.Rules = append(out.Rules, other.Rules...)
	return out
}

// WriteJSON serialises the rule set.
func (rs *RuleSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}

// ReadJSON deserialises a rule set written by WriteJSON.
func ReadJSON(r io.Reader) (*RuleSet, error) {
	var rs RuleSet
	if err := json.NewDecoder(r).Decode(&rs); err != nil {
		return nil, fmt.Errorf("rules: decode: %w", err)
	}
	return &rs, nil
}

// MarshalJSON renders the interval as [lo, hi].
func (iv Interval) MarshalJSON() ([]byte, error) {
	return json.Marshal([2]float64{iv.Lo, iv.Hi})
}

// UnmarshalJSON parses [lo, hi].
func (iv *Interval) UnmarshalJSON(data []byte) error {
	var pair [2]float64
	if err := json.Unmarshal(data, &pair); err != nil {
		return err
	}
	iv.Lo, iv.Hi = pair[0], pair[1]
	return nil
}

// Consistency implements §3.2.3's fidelity metric
// C = (1/N)·Σ 1{forest(x_i) = rules(x_i)} over the given samples.
func Consistency(rs *RuleSet, forest func([]float64) int, samples [][]float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	agree := 0
	for _, x := range samples {
		if rs.Match(x) == forest(x) {
			agree++
		}
	}
	return float64(agree) / float64(len(samples))
}
