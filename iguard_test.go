package iguard

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"iguard/internal/features"
	"iguard/internal/serve"
	"iguard/internal/switchsim"
	"iguard/internal/traffic"
)

// jsonMarshal/jsonUnmarshal keep the legacy-format test readable.
func jsonMarshal(v interface{}) ([]byte, error)   { return json.Marshal(v) }
func jsonUnmarshal(b []byte, v interface{}) error { return json.Unmarshal(b, v) }

// tinyConfig keeps facade tests fast.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.AEEpochs = 15
	cfg.Forest.Trees = 3
	cfg.Forest.SubSample = 96
	cfg.FlowThreshold = 8
	return cfg
}

func trainTiny(t testing.TB) *Detector {
	t.Helper()
	benign := traffic.GenerateBenign(1, 150)
	det, err := Train(benign.Packets, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, tinyConfig()); err == nil {
		t.Error("want error on empty packets")
	}
	if _, err := TrainOnFeatures(nil, tinyConfig()); err == nil {
		t.Error("want error on empty features")
	}
	if _, err := TrainOnFeatures([][]float64{{1, 2}}, tinyConfig()); err == nil {
		t.Error("want error on wrong dimension")
	}
}

func TestTrainAndClassify(t *testing.T) {
	det := trainTiny(t)
	if det.Rules().Len() == 0 {
		t.Fatal("no rules")
	}
	if len(det.CompiledRules().Rules) == 0 {
		t.Fatal("no compiled rules")
	}

	// Benign flows mostly pass; a flood mostly gets caught.
	cfg := tinyConfig()
	check := func(tr *traffic.Trace) (flagged, total int) {
		for _, s := range features.ExtractAll(tr.Packets, cfg.FlowThreshold, cfg.FlowTimeout) {
			flagged += det.ClassifyFlow(s.FL)
			total++
		}
		return flagged, total
	}
	bf, bt := check(traffic.GenerateBenign(2, 60))
	if float64(bf)/float64(bt) > 0.3 {
		t.Errorf("benign flagged %d/%d", bf, bt)
	}
	af, at := check(traffic.MustGenerateAttack(traffic.UDPDDoS, 3, 10))
	if float64(af)/float64(at) < 0.6 {
		t.Errorf("attack flagged only %d/%d", af, at)
	}
}

func TestScoreRange(t *testing.T) {
	det := trainTiny(t)
	s := det.Score(make([]float64, features.FLDim))
	if s < 0 || s > 1 {
		t.Errorf("score = %v", s)
	}
	if e := det.EnsembleScore(make([]float64, features.FLDim)); e < 0 {
		t.Errorf("ensemble score = %v", e)
	}
}

func TestConsistencyNearOne(t *testing.T) {
	det := trainTiny(t)
	var raws [][]float64
	test := traffic.GenerateBenign(5, 40).Merge(traffic.MustGenerateAttack(traffic.Mirai, 6, 10))
	for _, s := range features.ExtractAll(test.Packets, 4, DefaultConfig().FlowTimeout) {
		raws = append(raws, s.FL)
	}
	if c := det.Consistency(raws); c < 0.99 {
		t.Errorf("consistency = %v", c)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	det := trainTiny(t)
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Models saved by this version carry the distilled forest.
	if loaded.RuleBased() {
		t.Error("loaded detector should carry the forest")
	}
	if det.RuleBased() {
		t.Error("trained detector should not be rule-based")
	}
	// Loaded classification matches the original exactly.
	test := traffic.GenerateBenign(7, 40)
	agree, total := 0, 0
	for _, s := range features.ExtractAll(test.Packets, 4, DefaultConfig().FlowTimeout) {
		if det.ClassifyFlow(s.FL) == loaded.ClassifyFlow(s.FL) {
			agree++
		}
		total++
	}
	if agree != total {
		t.Errorf("loaded agreement %d/%d, want exact", agree, total)
	}

	// A rule-only model (older format) still loads and falls back to
	// rule matching.
	var legacy savedModel
	if err := jsonUnmarshal(buf.Bytes(), &legacy); err != nil {
		t.Fatal(err)
	}
	legacy.Forest = nil
	legacyBytes, _ := jsonMarshal(legacy)
	old, err := Load(bytes.NewReader(legacyBytes))
	if err != nil {
		t.Fatal(err)
	}
	if !old.RuleBased() {
		t.Error("rule-only model should be rule-based")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("{broken")); err == nil {
		t.Error("want decode error")
	}
	if _, err := Load(strings.NewReader("{}")); err == nil {
		t.Error("want missing-fields error")
	}
}

func TestWriteRules(t *testing.T) {
	det := trainTiny(t)
	var buf bytes.Buffer
	if err := det.WriteRules(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rules") {
		t.Error("rules JSON missing content")
	}
}

func TestDeployEndToEnd(t *testing.T) {
	det := trainTiny(t)
	dep, err := det.NewDeployment(DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	sw := dep.Switch

	attack := traffic.MustGenerateAttack(traffic.UDPDDoS, 8, 8)
	trace := traffic.GenerateBenign(9, 50).Merge(attack)
	drops := 0
	for i := range trace.Packets {
		if d := sw.ProcessPacket(&trace.Packets[i]); d.Dropped {
			drops++
		}
	}
	if drops == 0 {
		t.Error("flood not mitigated at all")
	}
	st := dep.Stats()
	if st.Controller.DigestsReceived == 0 {
		t.Error("controller received no digests")
	}
	if st.BlacklistLen == 0 {
		t.Error("no blacklist entries installed")
	}
	if st.Usage.SRAMBits == 0 || st.Usage.TCAMBits == 0 {
		t.Errorf("resource usage not accounted: %+v", st.Usage)
	}
	if sw.Counters.PathCounts[switchsim.PathBlue] == 0 {
		t.Error("no flows classified")
	}
}

// TestDeployConfigValidate covers the deployment validator: every
// broken field reported at once, and NewDeployment refusing the lot.
func TestDeployConfigValidate(t *testing.T) {
	err := DeployConfig{Slots: -1, BlacklistCapacity: -2, Eviction: 99}.Validate()
	if err == nil {
		t.Fatal("nonsense deploy config validated")
	}
	for _, want := range []string{"Slots", "BlacklistCapacity", "Eviction"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q missing %s", err, want)
		}
	}
	if err := DefaultDeployConfig().Validate(); err != nil {
		t.Errorf("default deploy config rejected: %v", err)
	}
	if err := (DeployConfig{}).Validate(); err != nil {
		t.Errorf("zero deploy config rejected: %v", err)
	}
	det := trainTiny(t)
	if dep, err := det.NewDeployment(DeployConfig{Slots: -1}); err == nil || dep != nil {
		t.Errorf("NewDeployment accepted an invalid config (dep=%v err=%v)", dep, err)
	}
}

// TestServeConfigValidate covers the serving validator, including the
// batch-size hygiene the batch redesign added and the nested deploy
// report.
func TestServeConfigValidate(t *testing.T) {
	err := ServeConfig{
		Deploy:     DeployConfig{Slots: -1},
		Shards:     -1,
		QueueDepth: -1,
		BatchSize:  -2,
		BatchFlush: -time.Second,
	}.Validate()
	if err == nil {
		t.Fatal("nonsense serve config validated")
	}
	for _, want := range []string{"Slots", "Shards", "QueueDepth", "BatchSize", "BatchFlush"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q missing %s", err, want)
		}
	}
	if err := DefaultServeConfig().Validate(); err != nil {
		t.Errorf("default serve config rejected: %v", err)
	}
	if err := (ServeConfig{BatchSize: serve.MaxBatchSize + 1}).Validate(); err == nil {
		t.Error("oversized BatchSize validated")
	}
	det := trainTiny(t)
	if srv, err := det.NewServer(ServeConfig{BatchSize: -1}); err == nil || srv != nil {
		t.Errorf("NewServer accepted an invalid config (srv=%v err=%v)", srv, err)
	}
}

func TestDeploymentCloseDetachesController(t *testing.T) {
	det := trainTiny(t)
	dep, err := det.NewDeployment(DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := dep.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// After Close the digest stream is detached: packets still flow but
	// the controller sees nothing new.
	attack := traffic.MustGenerateAttack(traffic.UDPDDoS, 8, 8)
	trace := traffic.GenerateBenign(9, 30).Merge(attack)
	for i := range trace.Packets {
		dep.Switch.ProcessPacket(&trace.Packets[i])
	}
	if got := dep.Stats().Controller.DigestsReceived; got != 0 {
		t.Errorf("controller received %d digests after Close", got)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.FlowThreshold <= 0 || cfg.FlowTimeout <= 0 || cfg.AEEpochs <= 0 {
		t.Errorf("config: %+v", cfg)
	}
	if cfg.Forest.Trees <= 0 {
		t.Error("forest trees")
	}
	dc := DefaultDeployConfig()
	if dc.Slots <= 0 || dc.BlacklistCapacity <= 0 {
		t.Errorf("deploy config: %+v", dc)
	}
}

func TestTrainWithValidationSelectsThreshold(t *testing.T) {
	cfg := tinyConfig()
	cfg.AEEpochs = 25
	cfg.Forest.Trees = 5
	cfg.Forest.SubSample = 192
	// Labelled validation: benign + UDP DDoS windows (the paper's
	// protocol with ~20% attack traffic).
	for _, s := range features.ExtractAll(traffic.GenerateBenign(20, 60).Packets, cfg.FlowThreshold, cfg.FlowTimeout) {
		cfg.ValidationX = append(cfg.ValidationX, s.FL)
		cfg.ValidationY = append(cfg.ValidationY, 0)
	}
	for _, s := range features.ExtractAll(traffic.MustGenerateAttack(traffic.UDPDDoS, 21, 6).Packets, cfg.FlowThreshold, cfg.FlowTimeout) {
		cfg.ValidationX = append(cfg.ValidationX, s.FL)
		cfg.ValidationY = append(cfg.ValidationY, 1)
	}
	det, err := Train(traffic.GenerateBenign(1, 150).Packets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The tuned detector must catch the flood on fresh test data.
	caught, total := 0, 0
	for _, s := range features.ExtractAll(traffic.MustGenerateAttack(traffic.UDPDDoS, 22, 8).Packets, cfg.FlowThreshold, cfg.FlowTimeout) {
		caught += det.ClassifyFlow(s.FL)
		total++
	}
	if float64(caught)/float64(total) < 0.8 {
		t.Errorf("validation-tuned detector caught %d/%d", caught, total)
	}
}

func TestTrainValidationLengthMismatch(t *testing.T) {
	cfg := tinyConfig()
	cfg.ValidationX = [][]float64{make([]float64, features.FLDim)}
	cfg.ValidationY = []int{0, 1}
	if _, err := Train(traffic.GenerateBenign(1, 80).Packets, cfg); err == nil {
		t.Error("want error on validation length mismatch")
	}
}
