package experiments

import (
	"fmt"
	"strings"

	"iguard/internal/core"
	"iguard/internal/features"
	"iguard/internal/metrics"
	"iguard/internal/rules"
	"iguard/internal/traffic"
)

// AblationResult reports one design-choice study across its variants.
type AblationResult struct {
	Title   string
	Rows    []AblationRow
	Remarks string
}

// AblationRow is one variant's outcome.
type AblationRow struct {
	Variant string
	MacroF1 float64
	PRAUC   float64
	ROCAUC  float64
	Rules   int
	Extra   string
}

// String renders the study.
func (r *AblationResult) String() string {
	var sb strings.Builder
	sb.WriteString(r.Title + "\n")
	fmt.Fprintf(&sb, "%-34s %9s %9s %9s %8s  %s\n", "variant", "macroF1", "PRAUC", "ROCAUC", "rules", "")
	for _, row := range r.Rows {
		if row.MacroF1 == 0 && row.PRAUC == 0 && row.ROCAUC == 0 { //iguard:allow(floatcompare) exact-zero sentinel for rule-count-only rows
			// Rule-count-only study (merging is detection-invariant).
			fmt.Fprintf(&sb, "%-34s %9s %9s %9s %8d  %s\n",
				row.Variant, "-", "-", "-", row.Rules, row.Extra)
			continue
		}
		fmt.Fprintf(&sb, "%-34s %9.3f %9.3f %9.3f %8d  %s\n",
			row.Variant, row.MacroF1, row.PRAUC, row.ROCAUC, row.Rules, row.Extra)
	}
	if r.Remarks != "" {
		sb.WriteString(r.Remarks + "\n")
	}
	return sb.String()
}

// evalForest scores a distilled forest on a dataset's test split.
func evalForest(f *core.Forest, ds *Dataset) (metrics.Summary, error) {
	preds := make([]int, len(ds.TestX))
	scores := make([]float64, len(ds.TestX))
	for i, x := range ds.TestX {
		preds[i] = f.Predict(x)
		scores[i] = f.Score(x)
	}
	return metrics.Evaluate(scores, preds, ds.TestY), nil
}

// RunAblationGuidance contrasts the three training regimes on one
// attack: iGuard (guided splits + distillation), random splits +
// distillation (§3.2.2 without §3.2.1), and the conventional iForest
// (neither).
func (l *Lab) RunAblationGuidance(attack traffic.AttackName) (*AblationResult, error) {
	ctx, err := l.Context(attack)
	if err != nil {
		return nil, err
	}
	ds := ctx.Data
	res := &AblationResult{Title: fmt.Sprintf("Ablation — guidance vs distillation (%s, n=%d)", attack, ds.Cfg.PktThreshold)}

	// 1. Full iGuard (from the cached context).
	full, err := evalForest(ctx.Guard, ds)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, AblationRow{
		Variant: "guided splits + distillation",
		MacroF1: full.MacroF1, PRAUC: full.PRAUC, ROCAUC: full.ROCAUC,
		Rules: ctx.GuardRules.Len(),
	})

	// 2. Random splits + distillation.
	opts := ctx.Guard.TrainedOptions()
	opts.RandomSplits = true
	randomForest, err := core.Fit(ds.TrainX, ctx.Ensemble, opts)
	if err != nil {
		return nil, err
	}
	rnd, err := evalForest(randomForest, ds)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, AblationRow{
		Variant: "random splits + distillation",
		MacroF1: rnd.MacroF1, PRAUC: rnd.PRAUC, ROCAUC: rnd.ROCAUC,
		Rules: randomForest.NumLeaves(),
	})

	// 3. Conventional iForest (path-length scores, no distillation).
	ifScores := scoreAll(ctx.CPUIForest.Score, ds.TestX)
	ifPreds := make([]int, len(ds.TestX))
	for i, x := range ds.TestX {
		ifPreds[i] = ctx.CPUIForest.Predict(x)
	}
	ifSum := metrics.Evaluate(ifScores, ifPreds, ds.TestY)
	res.Rows = append(res.Rows, AblationRow{
		Variant: "conventional iForest",
		MacroF1: ifSum.MacroF1, PRAUC: ifSum.PRAUC, ROCAUC: ifSum.ROCAUC,
		Rules: ctx.CPUIForest.NumLeaves(),
	})
	res.Remarks = "guidance shapes the leaves distillation labels; without it labels land on arbitrary regions."
	return res, nil
}

// RunAblationMerging measures §3.2.3's adjacent-hypercube merge: the
// rule-set size with and without it (detection is unaffected — merging
// is exact).
func (l *Lab) RunAblationMerging(attack traffic.AttackName) (*AblationResult, error) {
	ctx, err := l.Context(attack)
	if err != nil {
		return nil, err
	}
	unmerged, err := ctx.Guard.Rules(features.Universe(features.FLDim), rules.GenOptions{
		MaxCells:  l.Cfg.MaxCells,
		SkipMerge: true,
	})
	if err != nil {
		return nil, err
	}
	merged := ctx.GuardRules
	res := &AblationResult{Title: fmt.Sprintf("Ablation — adjacent-hypercube merging (%s)", attack)}
	res.Rows = append(res.Rows, AblationRow{Variant: "with merge (deployed)", Rules: merged.Len()})
	res.Rows = append(res.Rows, AblationRow{Variant: "without merge", Rules: unmerged.Len()})
	res.Remarks = "merging is exact: every sample keeps its label; only the TCAM footprint changes."
	return res, nil
}

// RunAblationBoundaryPeel contrasts the boundary peel on an attack with
// out-of-range features (UDP DDoS exceeds benign size/IPD ranges).
func (l *Lab) RunAblationBoundaryPeel(attack traffic.AttackName) (*AblationResult, error) {
	ctx, err := l.Context(attack)
	if err != nil {
		return nil, err
	}
	ds := ctx.Data
	res := &AblationResult{Title: fmt.Sprintf("Ablation — boundary peel (%s, n=%d)", attack, ds.Cfg.PktThreshold)}

	withPeel, err := evalForest(ctx.Guard, ds)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, AblationRow{
		Variant: "with boundary peel (deployed)",
		MacroF1: withPeel.MacroF1, PRAUC: withPeel.PRAUC, ROCAUC: withPeel.ROCAUC,
		Rules: ctx.Guard.NumLeaves(),
	})

	opts := ctx.Guard.TrainedOptions()
	opts.Bounds = nil // trees root at data bounds; no peel
	noPeel, err := core.Fit(ds.TrainX, ctx.Ensemble, opts)
	if err != nil {
		return nil, err
	}
	np, err := evalForest(noPeel, ds)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, AblationRow{
		Variant: "without peel",
		MacroF1: np.MacroF1, PRAUC: np.PRAUC, ROCAUC: np.ROCAUC,
		Rules: noPeel.NumLeaves(),
	})
	res.Remarks = "without the peel, feature space beyond the training range inherits boundary-leaf labels it was never probed for."
	return res, nil
}
