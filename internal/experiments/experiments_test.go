package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"iguard/internal/features"
	"iguard/internal/rules"
	"iguard/internal/traffic"
)

func quickData() DataConfig {
	cfg := DefaultDataConfig()
	cfg.BenignTrainFlows = 120
	cfg.BenignTestFlows = 60
	cfg.PktThreshold = 4
	return cfg
}

func TestBuildDatasetShapes(t *testing.T) {
	ds, err := BuildDataset(traffic.Mirai, quickData())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.TrainX) == 0 || len(ds.ValX) == 0 || len(ds.TestX) == 0 {
		t.Fatalf("empty splits: train=%d val=%d test=%d", len(ds.TrainX), len(ds.ValX), len(ds.TestX))
	}
	if len(ds.ValX) != len(ds.ValY) || len(ds.TestX) != len(ds.TestY) {
		t.Fatal("X/Y length mismatch")
	}
	for _, x := range ds.TrainX {
		if len(x) != features.FLDim {
			t.Fatalf("train vector dim = %d", len(x))
		}
	}
	// Attack share near the configured 20%.
	if share := ds.AttackShare(); share < 0.10 || share > 0.30 {
		t.Errorf("attack share = %v, want ~0.2", share)
	}
	// Validation contains both classes.
	pos := 0
	for _, y := range ds.ValY {
		pos += y
	}
	if pos == 0 || pos == len(ds.ValY) {
		t.Errorf("validation single-class: %d/%d", pos, len(ds.ValY))
	}
	if ds.TrainTrace == nil || ds.ValTrace == nil || ds.TestTrace == nil {
		t.Error("missing traces")
	}
	if len(ds.TestTrace.Malicious) == 0 {
		t.Error("test trace has no malicious flows")
	}
	if len(ds.PLTrainX) == 0 || len(ds.PLTrainX[0]) != features.PLDim {
		t.Error("PL training data missing")
	}
}

func TestBuildDatasetUnknownAttack(t *testing.T) {
	if _, err := BuildDataset("nope", quickData()); err == nil {
		t.Error("want error for unknown attack")
	}
}

func TestBuildDatasetScaling(t *testing.T) {
	ds, err := BuildDataset(traffic.UDPDDoS, quickData())
	if err != nil {
		t.Fatal(err)
	}
	// Training data scales into [0, 1] per feature.
	for _, x := range ds.TrainX {
		for j, v := range x {
			if v < -1e-9 || v > 1+1e-9 {
				t.Fatalf("train feature %d = %v outside [0,1]", j, v)
			}
		}
	}
}

// labForTests builds a lab with a tiny configuration shared by the
// heavier tests in this file.
func labForTests() *Lab {
	cfg := QuickLabConfig()
	cfg.Data.BenignTrainFlows = 140
	cfg.Data.BenignTestFlows = 70
	cfg.AEEpochs = 15
	cfg.GridK = []int{0}
	cfg.GridN = []int{4}
	return NewLab(cfg)
}

func TestLabContextCaching(t *testing.T) {
	lab := labForTests()
	a, err := lab.ContextN(traffic.Mirai, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lab.ContextN(traffic.Mirai, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("context not cached")
	}
	c, err := lab.ContextN(traffic.Mirai, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different n shares a context")
	}
}

func TestLabContextArtefacts(t *testing.T) {
	lab := labForTests()
	ctx, err := lab.ContextN(traffic.UDPDDoS, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Ensemble == nil || ctx.Guard == nil || ctx.CPUIForest == nil || ctx.SwitchIForest == nil || ctx.PLIForest == nil {
		t.Fatal("missing models")
	}
	if ctx.GuardRules.Len() == 0 || ctx.IFRules.Len() == 0 || ctx.PLRules.Len() == 0 {
		t.Fatal("missing rules")
	}
	if ctx.GuardCompiled == nil || ctx.IFCompiled == nil || ctx.PLCompiled == nil {
		t.Fatal("missing compiled rules")
	}
	// Compiled iGuard rules agree with the float rules on test samples.
	agree, total := 0, 0
	for i, x := range ctx.Data.TestX {
		raw := make([]float64, len(x))
		for j := range x {
			raw[j] = ctx.Data.Prep.InverseEdge(j, x[j])
		}
		want := ctx.GuardRules.Match(x)
		got := ctx.GuardCompiled.Match(raw)
		// Quantisation can flip points on bucket edges; require high
		// but not perfect agreement.
		if got == want {
			agree++
		}
		total++
		_ = i
	}
	if frac := float64(agree) / float64(total); frac < 0.97 {
		t.Errorf("compiled/float agreement = %v, want >= 0.97", frac)
	}
}

func TestRulesConsistencyWithForest(t *testing.T) {
	lab := labForTests()
	ctx, err := lab.ContextN(traffic.Mirai, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := rules.Consistency(ctx.GuardRules, ctx.Guard.Predict, ctx.Data.TestX)
	if c < 0.99 {
		t.Errorf("consistency C = %v, want >= 0.99 (paper: 0.992–0.996)", c)
	}
}

func TestReplayProducesCounters(t *testing.T) {
	lab := labForTests()
	ctx, err := lab.ContextN(traffic.UDPDDoS, 4)
	if err != nil {
		t.Fatal(err)
	}
	run := lab.replay(ctx, ctx.GuardCompiled, ctx.Data.TestTrace)
	if run.Counters.Packets != len(ctx.Data.TestTrace.Packets) {
		t.Errorf("packets = %d, want %d", run.Counters.Packets, len(ctx.Data.TestTrace.Packets))
	}
	if run.Counters.Digests == 0 {
		t.Error("no digests emitted")
	}
	if run.Latency <= 0 {
		t.Error("no latency modelled")
	}
	if run.Report.SRAM <= 0 || run.Report.TCAM <= 0 {
		t.Errorf("resource report = %+v", run.Report)
	}
	if run.Reward <= 0 || run.Reward > 1 {
		t.Errorf("reward = %v", run.Reward)
	}
}

func TestRunFig2ProducesOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	lab := labForTests()
	res, err := lab.RunFig2([]traffic.AttackName{traffic.Mirai})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if len(row.BenignPaths) == 0 || len(row.AttackPaths) == 0 {
		t.Fatal("missing path samples")
	}
	if row.Overlap < 0 || row.Overlap > 1 {
		t.Errorf("overlap = %v", row.Overlap)
	}
	if !strings.Contains(res.String(), "overlap") {
		t.Error("String() missing content")
	}
}

func TestRunFig5ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	lab := labForTests()
	res, err := lab.RunFig5([]traffic.AttackName{traffic.UDPDDoS})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	// Core claim: the guided, distilled forest tracks its guide and both
	// produce usable detectors.
	if row.IGuard.MacroF1 < 0.5 {
		t.Errorf("iGuard macro F1 = %v", row.IGuard.MacroF1)
	}
	if math.Abs(row.IGuard.MacroF1-row.Magnifier.MacroF1) > 0.35 {
		t.Errorf("iGuard %v far from its guide %v", row.IGuard.MacroF1, row.Magnifier.MacroF1)
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

func TestRunTable2And3Schemas(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	lab := labForTests()
	t2, err := lab.RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Cells) != 4 {
		t.Errorf("table 2 cells = %d, want 4", len(t2.Cells))
	}
	t3, err := lab.RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Cells) != 4 {
		t.Errorf("table 3 cells = %d, want 4", len(t3.Cells))
	}
	for _, c := range append(t2.Cells, t3.Cells...) {
		if c.Scenario == "" {
			t.Error("unnamed scenario")
		}
	}
	if !strings.Contains(t2.String(), "Table 2") || !strings.Contains(t3.String(), "Table 3") {
		t.Error("renders missing titles")
	}
}

func TestRunAppB2Arithmetic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	lab := labForTests()
	res, err := lab.RunAppB2(traffic.Mirai)
	if err != nil {
		t.Fatal(err)
	}
	// 50k digests of 105 bits over 30 s ≈ 21.9 KBps — the paper reports
	// ~21 KBps.
	if math.Abs(res.IGuardKBps-21.875) > 0.01 {
		t.Errorf("iGuard KBps = %v", res.IGuardKBps)
	}
	// FL-feature digests ~5x more (paper: 5.2x).
	if res.RatioX < 4.5 || res.RatioX > 5.5 {
		t.Errorf("ratio = %v, want ~5", res.RatioX)
	}
	if res.MeasuredDigests == 0 {
		t.Error("no digests measured")
	}
}

func TestGridNSelectionUsesValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := QuickLabConfig()
	cfg.Data.BenignTrainFlows = 140
	cfg.Data.BenignTestFlows = 70
	cfg.AEEpochs = 15
	cfg.GridK = []int{0}
	cfg.GridN = []int{2, 8}
	lab := NewLab(cfg)
	run, err := lab.bestRun(traffic.Mirai, func(c *AttackContext) *rules.CompiledRuleSet { return c.GuardCompiled })
	if err != nil {
		t.Fatal(err)
	}
	if run.ChosenN != 2 && run.ChosenN != 8 {
		t.Errorf("chosen n = %d, want from grid", run.ChosenN)
	}
}

func TestDataConfigDefaults(t *testing.T) {
	cfg := DefaultDataConfig()
	if cfg.PktThreshold <= 0 || cfg.Timeout <= 0 || cfg.AttackFraction <= 0 {
		t.Errorf("defaults: %+v", cfg)
	}
	if cfg.Timeout != 5*time.Second {
		t.Errorf("timeout = %v", cfg.Timeout)
	}
}

func TestQuickConfigSmallerThanDefault(t *testing.T) {
	q, d := QuickLabConfig(), DefaultLabConfig()
	if q.Data.BenignTrainFlows >= d.Data.BenignTrainFlows {
		t.Error("quick config not smaller")
	}
	if q.AEEpochs > d.AEEpochs {
		t.Error("quick epochs exceed default")
	}
}
