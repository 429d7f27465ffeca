package experiments

import (
	"fmt"

	"iguard/internal/features"
	"iguard/internal/rules"
)

// buildRules generates and compiles the whitelist rule sets for the
// iGuard forest, the switch-scale conventional iForest, and the
// early-packet PL iForest.
func (l *Lab) buildRules(ctx *AttackContext) error {
	cfg := l.Cfg
	genOpts := rules.GenOptions{MaxCells: cfg.MaxCells}

	// iGuard FL rules from the distilled forest, with boundary leaves
	// extended to the full universe so rules agree with forest routing
	// everywhere. The vote-aware generator short-circuits cells whose
	// majority is already decided.
	universe := features.Universe(features.FLDim)
	guardRules, err := ctx.Guard.Rules(universe, genOpts)
	if err != nil {
		return fmt.Errorf("experiments: iGuard rules: %w", err)
	}
	ctx.GuardRules = guardRules

	// Conventional iForest rules (the HorusEye-style baseline
	// deployment): same mechanism, labels from the score threshold.
	ifLeaves := make([][]rules.Box, len(ctx.SwitchIForest.Trees))
	for ti := range ctx.SwitchIForest.Trees {
		ifLeaves[ti] = ctx.SwitchIForest.LeafRegionsWithin(ti, universe)
	}
	ifRules, err := rules.Generate(universe, ifLeaves, ctx.SwitchIForest.Predict, genOpts)
	if err != nil {
		return fmt.Errorf("experiments: iForest rules: %w", err)
	}
	ctx.IFRules = ifRules

	// PL rules for early packets (merged into both deployments, §3.3.1).
	plUniverse := features.Universe(features.PLDim)
	plLeaves := make([][]rules.Box, len(ctx.PLIForest.Trees))
	for ti := range ctx.PLIForest.Trees {
		plLeaves[ti] = ctx.PLIForest.LeafRegionsWithin(ti, plUniverse)
	}
	plRules, err := rules.Generate(plUniverse, plLeaves, ctx.PLIForest.Predict, genOpts)
	if err != nil {
		return fmt.Errorf("experiments: PL rules: %w", err)
	}
	ctx.PLRules = plRules

	// Compile to the raw switch domain.
	ctx.GuardCompiled = ctx.Data.Prep.Compile(guardRules, cfg.QuantBits)
	ctx.IFCompiled = ctx.Data.Prep.Compile(ifRules, cfg.QuantBits)
	ctx.PLCompiled = ctx.Data.PLPrep.Compile(plRules, cfg.QuantBits)
	return nil
}
