package experiments

import (
	"context"
	"fmt"
	"sync"

	"iguard/internal/autoencoder"
	"iguard/internal/core"
	"iguard/internal/features"
	"iguard/internal/iforest"
	"iguard/internal/mathx"
	"iguard/internal/rules"
	"iguard/internal/traffic"
)

// LabConfig bundles every knob of the experiment pipeline.
type LabConfig struct {
	Data DataConfig

	// Autoencoder ensemble (the guide).
	AEEpochs      int
	AEBatch       int
	AELR          float64
	CalibQuantile float64

	// iGuard forest.
	GuardOpts core.Options

	// Conventional iForest: the CPU-scale baseline (Fig. 5) and the
	// switch-scale version compiled to rules (Fig. 6 / Table 1).
	CPUIForestOpts    iforest.Options
	SwitchIForestOpts iforest.Options
	Contamination     float64

	// PL iForest for early packets (§3.3.1).
	PLIForestOpts iforest.Options

	// Rule compilation.
	QuantBits int
	MaxCells  int

	// Switch deployment.
	SwitchSlots  int
	BlacklistCap int

	// GridN lists the per-flow packet-count thresholds the best-version
	// grid search explores (§4.2.1 footnote 12 grid-searches n and δ;
	// δ stays at Data.Timeout). Empty means no search: Data.PktThreshold
	// is used as-is.
	GridN []int
	// GridK lists the node-augmentation counts k the guided-forest grid
	// search explores (§4.1 footnote 10), selected per attack by
	// validation macro F1. Empty means GuardOpts.Augment as-is.
	GridK []int
	// GridT lists the calibration quantiles for the ensemble RMSE
	// thresholds T_u (footnote 10 grid-searches T). Selected jointly
	// with k by validation macro F1. Empty means CalibQuantile as-is.
	GridT []float64

	// Parallelism bounds the worker pool for ensemble-member,
	// grid-candidate and per-tree training (0 = GOMAXPROCS). Trained
	// artefacts are identical for every value.
	Parallelism int
}

// DefaultLabConfig returns the configuration cmd/iguard-eval runs with.
func DefaultLabConfig() LabConfig {
	guard := core.DefaultOptions()
	guard.Trees = 5
	guard.SubSample = 192
	// The k grid search (§4.1 footnote 10) lands on no node augmentation
	// during the split search — the entropy signal then follows the
	// guide's labels on real samples — with distillation augmentation
	// kept on to label data-free leaves (see the ablation bench).
	guard.Augment = 0
	guard.DistillAugment = 64

	cpuIF := iforest.DefaultOptions()
	cpuIF.Trees = 100
	cpuIF.SubSample = 256

	swIF := iforest.DefaultOptions()
	swIF.Trees = 4
	swIF.SubSample = 64

	plIF := iforest.DefaultOptions()
	plIF.Trees = 3
	plIF.SubSample = 64

	return LabConfig{
		Data:              DefaultDataConfig(),
		AEEpochs:          40,
		AEBatch:           32,
		AELR:              0.005,
		CalibQuantile:     0.97,
		GuardOpts:         guard,
		CPUIForestOpts:    cpuIF,
		SwitchIForestOpts: swIF,
		Contamination:     0.2,
		PLIForestOpts:     plIF,
		QuantBits:         20,
		MaxCells:          200000,
		SwitchSlots:       8192,
		BlacklistCap:      8192,
		GridN:             []int{2, 4, 8, 16},
		GridK:             []int{0, 4, 8},
		GridT:             []float64{0.90, 0.97},
	}
}

// QuickLabConfig returns a down-scaled configuration for tests and
// benchmarks (same structure, smaller everything).
func QuickLabConfig() LabConfig {
	cfg := DefaultLabConfig()
	cfg.Data.BenignTrainFlows = 180
	cfg.Data.BenignTestFlows = 90
	cfg.AEEpochs = 30
	cfg.GuardOpts.Trees = 3
	cfg.GuardOpts.SubSample = 96
	cfg.GuardOpts.Augment = 0
	cfg.GuardOpts.DistillAugment = 32
	cfg.CPUIForestOpts.Trees = 40
	cfg.CPUIForestOpts.SubSample = 128
	cfg.SwitchIForestOpts.Trees = 3
	cfg.SwitchIForestOpts.SubSample = 48
	cfg.PLIForestOpts.Trees = 2
	cfg.PLIForestOpts.SubSample = 48
	cfg.SwitchSlots = 2048
	cfg.GridN = []int{2, 8}
	cfg.GridK = []int{0, 8}
	cfg.GridT = []float64{0.90, 0.97}
	return cfg
}

// AttackContext caches every artefact built for one attack: the
// dataset, the trained guide ensemble, the iGuard forest, the baseline
// forests, and the compiled rule sets.
type AttackContext struct {
	Data *Dataset

	Ensemble *autoencoder.Ensemble
	Guard    *core.Forest

	CPUIForest    *iforest.Forest
	SwitchIForest *iforest.Forest
	PLIForest     *iforest.Forest

	// GuardRules / IFRules are the float-domain rule sets; the Compiled
	// variants are quantised to the raw (switch) feature domain.
	GuardRules    *rules.RuleSet
	IFRules       *rules.RuleSet
	PLRules       *rules.RuleSet
	GuardCompiled *rules.CompiledRuleSet
	IFCompiled    *rules.CompiledRuleSet
	PLCompiled    *rules.CompiledRuleSet
}

// Lab builds and caches AttackContexts.
type Lab struct {
	Cfg LabConfig

	mu    sync.Mutex
	cache map[string]*AttackContext
}

// NewLab returns an empty lab.
func NewLab(cfg LabConfig) *Lab {
	return &Lab{Cfg: cfg, cache: map[string]*AttackContext{}}
}

// Context returns the (cached) artefacts for one attack at the default
// packet-count threshold.
func (l *Lab) Context(attack traffic.AttackName) (*AttackContext, error) {
	return l.ContextN(attack, l.Cfg.Data.PktThreshold)
}

// cpuFlowCap is the effective "no truncation" threshold of the CPU
// experiments: flows emit at timeout or end of trace with their full
// statistics, matching the paper's §4.1 setting where all Magnifier
// features are available.
const cpuFlowCap = 1 << 20

// CPUContext returns the artefacts for the CPU-side experiments
// (Fig. 2/5/10): full-flow features and a larger benign corpus (flow
// counts triple because full flows yield one sample each, while the
// switch pipeline emits several truncated windows per flow).
func (l *Lab) CPUContext(attack traffic.AttackName) (*AttackContext, error) {
	key := fmt.Sprintf("%s/cpu", attack)
	l.mu.Lock()
	if ctx, ok := l.cache[key]; ok {
		l.mu.Unlock()
		return ctx, nil
	}
	l.mu.Unlock()
	cpu := l.Cfg
	cpu.Data.BenignTrainFlows *= 3
	cpu.Data.BenignTestFlows *= 2
	ctx, err := l.buildWith(cpu, attack, cpuFlowCap)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.cache[key] = ctx
	l.mu.Unlock()
	return ctx, nil
}

// ContextN returns the artefacts for one attack with the flow pipeline
// truncated at n packets — the unit the best-version grid search
// iterates over. Features, models and rules are all rebuilt for each n
// because flow features depend on the truncation point.
func (l *Lab) ContextN(attack traffic.AttackName, n int) (*AttackContext, error) {
	key := fmt.Sprintf("%s/n=%d", attack, n)
	l.mu.Lock()
	if ctx, ok := l.cache[key]; ok {
		l.mu.Unlock()
		return ctx, nil
	}
	l.mu.Unlock()
	ctx, err := l.build(attack, n)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.cache[key] = ctx
	l.mu.Unlock()
	return ctx, nil
}

// build constructs everything for one attack at threshold n.
func (l *Lab) build(attack traffic.AttackName, n int) (*AttackContext, error) {
	return l.buildWith(l.Cfg, attack, n)
}

// buildWith is build with an explicit configuration (used by the CPU
// contexts, which enlarge the benign corpus).
func (l *Lab) buildWith(cfg LabConfig, attack traffic.AttackName, n int) (*AttackContext, error) {
	cfg.Data.PktThreshold = n
	ds, err := BuildDataset(attack, cfg.Data)
	if err != nil {
		return nil, err
	}
	ctx := &AttackContext{Data: ds}

	// 1. Train the guide: the Magnifier-style ensemble (App. A selects
	// Magnifier; we pair it with a symmetric AE as the second member).
	ctx.Ensemble = autoencoder.NewGuide(mathx.NewRand(cfg.Data.Seed+1000), features.FLDim)
	ctx.Ensemble.Fit(ds.TrainX, autoencoder.TrainOptions{
		Epochs: cfg.AEEpochs, BatchSize: cfg.AEBatch, LR: cfg.AELR,
		Rand: mathx.NewRand(cfg.Data.Seed + 1001), Parallelism: cfg.Parallelism,
	})

	// 2. iGuard: guided training + distillation. Trees grow over the
	// sub-sample's data bounds (footnote-7 augmentation stays
	// data-informed) and are boundary-peeled out to the rule universe so
	// off-range feature space gets its own distillation-labelled leaves.
	// (k, T) is grid-searched per attack on validation macro F1
	// (footnote 10): k sets the probe budget, the calibration quantile
	// sets the ensemble thresholds T_u — taken over the benign
	// validation rows — and with them how fat the guide's malicious
	// region is.
	guardOpts := cfg.GuardOpts
	guardOpts.Seed = cfg.Data.Seed + 2000
	guardOpts.Parallelism = cfg.Parallelism
	guardOpts.Bounds = features.Universe(features.FLDim)
	kGrid := cfg.GridK
	if len(kGrid) == 0 {
		kGrid = []int{guardOpts.Augment}
	}
	tGrid := cfg.GridT
	if len(tGrid) == 0 {
		tGrid = []float64{cfg.CalibQuantile}
	}
	thresholds := ctx.Ensemble.QuantileThresholds(benignOnly(ds.ValX, ds.ValY), tGrid)
	guides := make([]core.Guide, len(thresholds))
	for i, ths := range thresholds {
		guides[i] = ctx.Ensemble.WithThresholds(ths)
	}
	guard, ti, err := core.Select(context.Background(), ds.TrainX, guides, kGrid, guardOpts, ds.ValX, ds.ValY)
	if err != nil {
		return nil, fmt.Errorf("experiments: guard grid: %w", err)
	}
	ctx.Guard = guard
	// Leave the ensemble calibrated at the winning quantile so guide
	// predictions and leaf labels stay consistent with the forest.
	ctx.Ensemble.SetThresholds(thresholds[ti])

	// 3. Conventional iForests.
	cpuOpts := cfg.CPUIForestOpts
	cpuOpts.Seed = cfg.Data.Seed + 3000
	cpuOpts.Parallelism = cfg.Parallelism
	ctx.CPUIForest = iforest.Fit(ds.TrainX, cpuOpts)
	ctx.CPUIForest.CalibrateThreshold(ds.ValX, contaminationOf(ds.ValY, cfg.Contamination))

	swOpts := cfg.SwitchIForestOpts
	swOpts.Seed = cfg.Data.Seed + 3001
	swOpts.Parallelism = cfg.Parallelism
	ctx.SwitchIForest = iforest.Fit(ds.TrainX, swOpts)
	ctx.SwitchIForest.CalibrateThreshold(ds.ValX, contaminationOf(ds.ValY, cfg.Contamination))

	plOpts := cfg.PLIForestOpts
	plOpts.Seed = cfg.Data.Seed + 3002
	plOpts.Parallelism = cfg.Parallelism
	ctx.PLIForest = iforest.Fit(ds.PLTrainX, plOpts)
	// PL classification is deliberately conservative: flag only the most
	// extreme early packets (high threshold quantile).
	ctx.PLIForest.CalibrateThreshold(ds.PLTrainX, 0.02)

	// 4. Rule generation and compilation.
	if err := l.buildRules(ctx); err != nil {
		return nil, err
	}
	return ctx, nil
}

// benignOnly filters X down to label-0 rows.
func benignOnly(x [][]float64, y []int) [][]float64 {
	var out [][]float64
	for i, row := range x {
		if y[i] == 0 {
			out = append(out, row)
		}
	}
	return out
}

// contaminationOf returns the true malicious fraction of the validation
// labels, falling back to the configured default when degenerate — the
// paper grid searches contamination; the oracle fraction is the value
// that search converges to.
func contaminationOf(y []int, fallback float64) float64 {
	if len(y) == 0 {
		return fallback
	}
	n := 0
	for _, v := range y {
		n += v
	}
	f := float64(n) / float64(len(y))
	if f <= 0 || f >= 1 {
		return fallback
	}
	return f
}
