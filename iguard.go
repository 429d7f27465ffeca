// Package iguard is the public API of this repository: a from-scratch
// Go implementation of "iGuard: Efficient Isolation Forest Design for
// Malicious Traffic Detection in Programmable Switches" (CoNEXT 2024).
//
// The pipeline mirrors Fig. 1 of the paper:
//
//  1. extract flow-level features from benign training traffic,
//  2. train an ensemble of autoencoders on them,
//  3. grow an isolation forest guided by that ensemble (§3.2.1),
//  4. distil the ensemble's knowledge into the forest's leaves (§3.2.2),
//  5. compile the labelled forest into whitelist rules (§3.2.3), and
//  6. deploy the rules on a (simulated) programmable-switch data plane.
//
// The minimal use is three calls:
//
//	det, err := iguard.Train(benignPackets, iguard.DefaultConfig())
//	verdict := det.ClassifyFlow(flowFeatures) // 0 benign, 1 malicious
//	dep, err := det.NewDeployment(iguard.DefaultDeployConfig())
//
// Training is deterministic and parallel: Config.Parallelism bounds
// the worker pool fanned out across grid-search candidates, ensemble
// members, and forest trees, and the trained model is byte-identical
// for every worker count (each unit derives its own random stream from
// the seed and its index). TrainContext and TrainOnFeaturesContext
// accept a context for cooperative cancellation mid-training, and
// Config.Validate rejects misconfiguration up front with one joined
// descriptive error.
//
// See the examples directory for complete programs.
package iguard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"iguard/internal/autoencoder"
	"iguard/internal/controller"
	"iguard/internal/core"
	"iguard/internal/features"
	"iguard/internal/mathx"
	"iguard/internal/netpkt"
	"iguard/internal/parallel"
	"iguard/internal/rules"
	"iguard/internal/serve"
	"iguard/internal/switchsim"
)

// Packet is the parsed-packet type consumed by Train and the switch
// simulator (alias of the internal packet model so library users and
// the PCAP reader share one type).
type Packet = netpkt.Packet

// Config parameterises Train. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Seed drives all randomness (training is fully deterministic).
	Seed int64

	// FlowThreshold is n: flow features are computed over the first n
	// packets of each flow (§3.3.1). FlowTimeout is δ, the idle timeout.
	FlowThreshold int
	FlowTimeout   time.Duration

	// AEEpochs/AEBatch/AELearningRate train the autoencoder ensemble.
	AEEpochs       int
	AEBatch        int
	AELearningRate float64
	// CalibrationQuantile sets each member's RMSE threshold T_u at this
	// quantile of its benign reconstruction errors.
	CalibrationQuantile float64

	// Forest holds the guided-forest options (t, Ψ, k, τ_split, ...).
	Forest core.Options
	// AugmentGrid lists the node-augmentation counts k to try; the
	// forest whose predictions agree best with the autoencoder ensemble
	// on a benign holdout plus synthetic probes wins (a benign-only
	// stand-in for the paper's validation grid search). Empty disables
	// the search and uses Forest.Augment directly.
	AugmentGrid []int
	// ThresholdGrid lists calibration quantiles for the ensemble RMSE
	// thresholds T_u, searched jointly with AugmentGrid when labelled
	// validation data is provided. Empty keeps CalibrationQuantile.
	ThresholdGrid []float64

	// ValidationX/ValidationY, when provided, are raw labelled flow
	// vectors (0 benign, 1 malicious) used to select (k, T) by macro F1
	// — the paper's §4.1 methodology, where validation sets carry 20%
	// attack traffic. Without them the benign-only fidelity heuristic
	// selects k at a fixed threshold. Training-time only: not part of
	// the saved model (format 2).
	ValidationX [][]float64 `json:"-"`
	ValidationY []int       `json:"-"`

	// QuantBits is the per-feature fixed-point width rules compile to.
	QuantBits int
	// MaxRuleCells caps hypercube enumeration during rule generation.
	MaxRuleCells int

	// Parallelism bounds the training worker pool (0 = GOMAXPROCS).
	// It fans out across the three independent layers of training —
	// grid-search candidates, ensemble members, and forest trees — and
	// never changes the trained model: every unit derives its own
	// random stream from (Seed, unit index), and results reduce in
	// index order, so the saved model is byte-identical for every
	// value. Runtime-only: not part of the saved model.
	Parallelism int `json:"-"`
}

// Validate reports every rejectable Config field at once, joined into
// a single descriptive error (errors.Is/As see the individual
// failures). Train and TrainContext call it before touching any data,
// so misconfiguration fails fast instead of panicking deep inside the
// pipeline. A nil return means the configuration is trainable.
func (c Config) Validate() error {
	var errs []error
	add := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf("iguard: config: "+format, args...))
	}
	if c.FlowThreshold <= 0 {
		add("FlowThreshold must be positive, got %d", c.FlowThreshold)
	}
	if c.FlowTimeout <= 0 {
		add("FlowTimeout must be positive, got %v", c.FlowTimeout)
	}
	if c.AEEpochs <= 0 {
		add("AEEpochs must be positive, got %d", c.AEEpochs)
	}
	if c.AEBatch <= 0 {
		add("AEBatch must be positive, got %d", c.AEBatch)
	}
	if c.AELearningRate <= 0 {
		add("AELearningRate must be positive, got %v", c.AELearningRate)
	}
	if c.CalibrationQuantile <= 0 || c.CalibrationQuantile > 1 {
		add("CalibrationQuantile must be in (0, 1], got %v", c.CalibrationQuantile)
	}
	for i, k := range c.AugmentGrid {
		if k < 0 {
			add("AugmentGrid[%d] must be non-negative, got %d", i, k)
		}
	}
	for i, q := range c.ThresholdGrid {
		if q <= 0 || q > 1 {
			add("ThresholdGrid[%d] must be in (0, 1], got %v", i, q)
		}
	}
	if len(c.ValidationX) != len(c.ValidationY) {
		add("ValidationX/ValidationY length mismatch: %d vs %d", len(c.ValidationX), len(c.ValidationY))
	}
	for i, y := range c.ValidationY {
		if y != 0 && y != 1 {
			add("ValidationY[%d] must be 0 or 1, got %d", i, y)
			break
		}
	}
	for i, x := range c.ValidationX {
		if len(x) != features.FLDim {
			add("ValidationX[%d] has %d dims, want %d", i, len(x), features.FLDim)
			break
		}
	}
	if c.QuantBits < 1 || c.QuantBits > 32 {
		add("QuantBits must be in [1, 32], got %d", c.QuantBits)
	}
	if c.MaxRuleCells <= 0 {
		add("MaxRuleCells must be positive, got %d", c.MaxRuleCells)
	}
	if c.Parallelism < 0 {
		add("Parallelism must be non-negative (0 = GOMAXPROCS), got %d", c.Parallelism)
	}
	if err := c.Forest.Validate(); err != nil {
		errs = append(errs, fmt.Errorf("iguard: config: Forest: %w", err))
	}
	return errors.Join(errs...)
}

// DefaultConfig returns a configuration matching the evaluation's
// operating point.
func DefaultConfig() Config {
	forest := core.DefaultOptions()
	forest.Trees = 5
	forest.SubSample = 192
	forest.Augment = 0
	forest.DistillAugment = 64
	return Config{
		Seed:                1,
		FlowThreshold:       16,
		FlowTimeout:         5 * time.Second,
		AEEpochs:            40,
		AEBatch:             32,
		AELearningRate:      0.005,
		CalibrationQuantile: 0.92,
		Forest:              forest,
		AugmentGrid:         []int{0, 4, 8},
		ThresholdGrid:       []float64{0.88, 0.92, 0.97},
		QuantBits:           20,
		MaxRuleCells:        200000,
	}
}

// Detector is a trained iGuard pipeline.
type Detector struct {
	cfg      Config
	prep     *features.Preprocess
	ensemble *autoencoder.Ensemble
	forest   *core.Forest
	ruleSet  *rules.RuleSet
	compiled *rules.CompiledRuleSet
}

// Train builds the full iGuard pipeline from benign training packets.
// It returns an error when the configuration is invalid or the trace
// yields no flows.
func Train(benign []Packet, cfg Config) (*Detector, error) {
	return TrainContext(context.Background(), benign, cfg)
}

// TrainContext is Train with cooperative cancellation: training checks
// ctx between pipeline stages, between autoencoder epochs, and between
// parallel grid-search/tree units, returning ctx.Err() promptly when
// cancelled. cfg.Parallelism bounds the worker pool; the result is
// identical for every worker count.
func TrainContext(ctx context.Context, benign []Packet, cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	samples := features.ExtractAll(benign, cfg.FlowThreshold, cfg.FlowTimeout)
	if len(samples) == 0 {
		return nil, fmt.Errorf("iguard: no flows extracted from %d packets", len(benign))
	}
	raw := make([][]float64, len(samples))
	for i, s := range samples {
		raw[i] = s.FL
	}
	return TrainOnFeaturesContext(ctx, raw, cfg)
}

// TrainOnFeatures builds the pipeline directly from raw (unscaled)
// 13-dimensional flow-feature vectors, for callers with their own
// extraction.
func TrainOnFeatures(raw [][]float64, cfg Config) (*Detector, error) {
	return TrainOnFeaturesContext(context.Background(), raw, cfg)
}

// TrainOnFeaturesContext is TrainOnFeatures with cooperative
// cancellation and bounded parallelism; see TrainContext.
func TrainOnFeaturesContext(ctx context.Context, raw [][]float64, cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("iguard: empty training set")
	}
	if len(raw[0]) != features.FLDim {
		return nil, fmt.Errorf("iguard: feature vectors have %d dims, want %d", len(raw[0]), features.FLDim)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d := &Detector{cfg: cfg}
	d.prep = features.NewFLPreprocess()
	trainX := d.prep.FitTransform(raw)

	d.ensemble = autoencoder.NewGuide(mathx.NewRand(cfg.Seed), features.FLDim)
	if err := d.ensemble.FitContext(ctx, trainX, autoencoder.TrainOptions{
		Epochs: cfg.AEEpochs, BatchSize: cfg.AEBatch, LR: cfg.AELearningRate,
		Rand: mathx.NewRand(cfg.Seed + 1), Parallelism: cfg.Parallelism,
	}); err != nil {
		return nil, err
	}
	forestOpts := cfg.Forest
	forestOpts.Seed = cfg.Seed + 2
	forestOpts.Parallelism = cfg.Parallelism
	forestOpts.Bounds = features.Universe(features.FLDim)
	kGrid := cfg.AugmentGrid
	if len(kGrid) == 0 {
		kGrid = []int{forestOpts.Augment}
	}
	if len(cfg.ValidationX) > 0 {
		if err := d.selectByValidation(ctx, trainX, forestOpts, kGrid, cfg); err != nil {
			return nil, err
		}
	} else {
		d.ensemble.Calibrate(trainX, cfg.CalibrationQuantile)
		if err := d.selectByFidelity(ctx, trainX, forestOpts, kGrid, cfg); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rs, err := d.forest.Rules(features.Universe(features.FLDim), rules.GenOptions{MaxCells: cfg.MaxRuleCells})
	if err != nil {
		return nil, err
	}
	d.ruleSet = rs
	d.compiled = d.prep.Compile(rs, cfg.QuantBits)
	return d, nil
}

// selectByValidation grid-searches (k, T) by macro F1 on the labelled
// validation set — the paper's §4.1 footnote-10 methodology — with the
// thresholds T_u calibrated on the benign training rows. core.Select
// trains every candidate against a read-only calibrated view of the
// ensemble; the ensemble is then left calibrated at the winning
// quantile so guide predictions stay consistent with the forest.
func (d *Detector) selectByValidation(ctx context.Context, trainX [][]float64, forestOpts core.Options, kGrid []int, cfg Config) error {
	tGrid := cfg.ThresholdGrid
	if len(tGrid) == 0 {
		tGrid = []float64{cfg.CalibrationQuantile}
	}
	thresholds := d.ensemble.QuantileThresholds(trainX, tGrid)
	guides := make([]core.Guide, len(thresholds))
	for i, ths := range thresholds {
		guides[i] = d.ensemble.WithThresholds(ths)
	}
	forest, ti, err := core.Select(ctx, trainX, guides, kGrid, forestOpts, d.prep.TransformAll(cfg.ValidationX), cfg.ValidationY)
	if err != nil {
		return err
	}
	d.forest = forest
	d.ensemble.SetThresholds(thresholds[ti])
	return nil
}

// selectByFidelity picks k by agreement with the ensemble on benign
// holdout plus synthetic probes (the benign-only fallback). The
// ensemble's probe labels are computed once; the k candidates train
// concurrently and the argmax breaks ties by grid position.
func (d *Detector) selectByFidelity(ctx context.Context, trainX [][]float64, forestOpts core.Options, kGrid []int, cfg Config) error {
	probes := guideProbes(trainX, cfg.Seed+3)
	want := make([]int, len(probes))
	for i, p := range probes {
		want[i] = d.ensemble.Predict(p)
	}
	forests := make([]*core.Forest, len(kGrid))
	fidelities := make([]float64, len(kGrid))
	err := parallel.For(ctx, cfg.Parallelism, len(kGrid), func(i int) error {
		opts := forestOpts
		opts.Augment = kGrid[i]
		forest, err := core.FitContext(ctx, trainX, d.ensemble, opts)
		if err != nil {
			return err
		}
		agree := 0
		for pi, p := range probes {
			if forest.Predict(p) == want[pi] {
				agree++
			}
		}
		forests[i] = forest
		fidelities[i] = float64(agree) / float64(len(probes))
		return nil
	})
	if err != nil {
		return err
	}
	best := 0
	for i := range fidelities {
		if fidelities[i] > fidelities[best] {
			best = i
		}
	}
	d.forest = forests[best]
	return nil
}

// guideProbes builds the benign-only fidelity probe set for the k grid:
// the training samples themselves plus uniform draws over the slightly
// inflated data box (interior holes and near-boundary space where the
// forest must mimic the ensemble).
func guideProbes(trainX [][]float64, seed int64) [][]float64 {
	r := mathx.NewRand(seed)
	probes := make([][]float64, 0, 2*len(trainX))
	probes = append(probes, trainX...)
	dim := len(trainX[0])
	for i := 0; i < len(trainX); i++ {
		p := make([]float64, dim)
		for j := range p {
			p[j] = -0.1 + 1.2*r.Float64()
		}
		probes = append(probes, p)
	}
	return probes
}

// ClassifyFlow labels one raw (unscaled) 13-dimensional flow-feature
// vector: 0 benign, 1 malicious. Trained detectors use the forest;
// loaded (rule-based) detectors use the rule set, which agrees with the
// forest up to the consistency metric C.
func (d *Detector) ClassifyFlow(raw []float64) int {
	x := d.prep.Transform(raw)
	if d.forest == nil {
		return d.ruleSet.Match(x)
	}
	return d.forest.Predict(x)
}

// Score returns the malicious vote fraction in [0, 1] for a raw flow
// vector. Rule-based (loaded) detectors return 0/1.
func (d *Detector) Score(raw []float64) float64 {
	x := d.prep.Transform(raw)
	if d.forest == nil {
		return float64(d.ruleSet.Match(x))
	}
	return d.forest.Score(x)
}

// EnsembleScore returns the guiding autoencoder ensemble's continuous
// anomaly score for a raw flow vector.
func (d *Detector) EnsembleScore(raw []float64) float64 {
	return d.ensemble.Score(d.prep.Transform(raw))
}

// Rules returns the float-domain labelled rule set (whitelist +
// malicious cells).
func (d *Detector) Rules() *rules.RuleSet { return d.ruleSet }

// CompiledRules returns the quantised whitelist ready for switch
// installation.
func (d *Detector) CompiledRules() *rules.CompiledRuleSet { return d.compiled }

// WriteRules serialises the rule set as JSON.
func (d *Detector) WriteRules(w io.Writer) error { return d.ruleSet.WriteJSON(w) }

// Consistency measures §3.2.3's rule-fidelity metric C over raw flow
// vectors. A loaded (rule-only) detector has no forest to compare
// against — the rules ARE the model — so it returns 1.0, the rule
// set's self-consistency, instead of panicking.
func (d *Detector) Consistency(raw [][]float64) float64 {
	if d.forest == nil {
		return 1.0
	}
	model := d.prep.TransformAll(raw)
	return rules.Consistency(d.ruleSet, d.forest.Predict, model)
}

// DeployConfig parameterises NewDeployment.
type DeployConfig struct {
	// Slots is the per-hash-table flow-state capacity.
	Slots int
	// BlacklistCapacity bounds the blacklist table; the controller
	// evicts beyond it using the chosen policy.
	BlacklistCapacity int
	// Eviction selects FIFO or LRU blacklist eviction.
	Eviction controller.EvictionPolicy
	// DropMalicious selects drop versus forward-to-quarantine.
	DropMalicious bool
}

// Validate reports every configuration error at once, in the same
// joined-error style as Config.Validate. Zero values are valid (they
// select the documented defaults); negatives and unknown enum values
// are not. NewDeployment calls it.
func (c DeployConfig) Validate() error {
	var errs []error
	add := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf("iguard: deploy config: "+format, args...))
	}
	if c.Slots < 0 {
		add("Slots must be non-negative (0 means default), got %d", c.Slots)
	}
	if c.BlacklistCapacity < 0 {
		add("BlacklistCapacity must be non-negative (0 means default), got %d", c.BlacklistCapacity)
	}
	if c.Eviction != controller.FIFO && c.Eviction != controller.LRU {
		add("Eviction must be controller.FIFO or controller.LRU, got %d", c.Eviction)
	}
	return errors.Join(errs...)
}

// DefaultDeployConfig returns the evaluation's deployment parameters.
func DefaultDeployConfig() DeployConfig {
	return DeployConfig{Slots: 8192, BlacklistCapacity: 8192, Eviction: controller.LRU, DropMalicious: true}
}

// Deployment is a running data-plane/control-plane pair: the
// detector's whitelist installed on a simulated switch whose digest
// stream feeds a fresh controller. Drive traffic through
// Switch.ProcessPacket; inspect progress with Stats; detach the
// control loop with Close.
type Deployment struct {
	// Switch is the simulated programmable data plane.
	Switch *switchsim.Switch
	// Controller is the control-plane agent consuming the switch's
	// digests and managing the blacklist.
	Controller *controller.Controller
	closed     bool
}

// DeploymentStats is a point-in-time snapshot across both planes.
type DeploymentStats struct {
	// Controller aggregates the control-plane counters (digests,
	// installs, evictions).
	Controller controller.Stats
	// Usage is the data plane's hardware-resource footprint.
	Usage switchsim.Usage
	// ActiveFlows counts flow-state entries currently tracked.
	ActiveFlows int
	// BlacklistLen is the number of installed blacklist entries.
	BlacklistLen int
}

// NewDeployment validates the config and installs the detector's
// whitelist on a simulated switch wired to a fresh controller, both
// ready to process packets. The error is cfg.Validate()'s joined
// report; a validated config always deploys.
func (d *Detector) NewDeployment(cfg DeployConfig) (*Deployment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return d.newDeployment(cfg), nil
}

// newDeployment builds the pair from an already-validated config.
func (d *Detector) newDeployment(cfg DeployConfig) *Deployment {
	sw := switchsim.New(switchsim.Config{
		Slots:             cfg.Slots,
		PktThreshold:      d.cfg.FlowThreshold,
		Timeout:           d.cfg.FlowTimeout,
		FLRules:           d.compiled,
		BlacklistCapacity: cfg.BlacklistCapacity,
		DropMalicious:     cfg.DropMalicious,
	})
	ctrl := controller.New(sw, cfg.BlacklistCapacity, cfg.Eviction)
	sw.SetSink(ctrl)
	return &Deployment{Switch: sw, Controller: ctrl}
}

// Sweep runs the control-plane timeout sweep at the given trace
// instant: flows idle past the configured timeout are classified and
// digested from their accumulated state, and stale flow labels are
// reclaimed so their slots free up. Without periodic sweeps, stale
// slots linger until a colliding flow evicts them as victims — a
// caller processing packets one at a time should sweep on a cadence
// of its own choosing (the serve runtime does this per shard, paced
// by capture timestamps). Sweep follows the switch's single-goroutine
// ownership contract: call it from the goroutine that drives
// ProcessPacket, with a monotonically non-decreasing now.
func (dep *Deployment) Sweep(now time.Time) {
	dep.Switch.SweepTimeouts(now)
}

// Stats snapshots counters from both planes.
func (dep *Deployment) Stats() DeploymentStats {
	return DeploymentStats{
		Controller:   dep.Controller.Stats(),
		Usage:        dep.Switch.Usage(),
		ActiveFlows:  dep.Switch.ActiveFlows(),
		BlacklistLen: dep.Switch.BlacklistLen(),
	}
}

// Close detaches the controller from the switch's digest stream; the
// switch keeps forwarding with whatever blacklist is installed, but no
// new control-plane actions occur. Idempotent, always returns nil (the
// error return anticipates deployments backed by real transports).
func (dep *Deployment) Close() error {
	if dep.closed {
		return nil
	}
	dep.closed = true
	dep.Switch.SetSink(nil)
	return nil
}

// ServeConfig parameterises NewServer. The zero value serves on one
// shard with the default deployment.
type ServeConfig struct {
	// Deploy configures each shard's private deployment. Slots and
	// BlacklistCapacity are per shard, so total capacity scales with
	// the shard count. A zero value uses DefaultDeployConfig.
	Deploy DeployConfig
	// Shards is the worker count; flows never span shards. 0 means 1.
	Shards int
	// QueueDepth bounds each shard's input queue (0 = 1024).
	QueueDepth int
	// Policy selects backpressure (serve.Block) or counted shedding
	// (serve.Drop) when a shard queue fills.
	Policy serve.DropPolicy
	// SweepEvery is the trace-time cadence of per-shard timeout
	// sweeps; zero disables them.
	SweepEvery time.Duration
	// BatchSize is the most packets accumulated per shard before they
	// are handed off as one mailbox operation and decided by one batch
	// pipeline pass (0 = serve.DefaultBatchSize; 1 hands every packet
	// off alone). Decisions are identical at every size; only the
	// per-packet overhead is amortised.
	BatchSize int
	// BatchFlush bounds, in trace time, how long a partial batch may
	// wait before being handed off (0 = 1ms). It is checked once per
	// ingest call, so a call whose packets span many intervals hands
	// each shard one batch. See serve.Config.BatchFlush.
	BatchFlush time.Duration
	// Producers is the ingest lane count (0 = 1). Each lane is an
	// independent sequence space driven by one producer goroutine; see
	// serve.Config.Producers and the OnDecision ordering contract.
	Producers int
	// OnDecision observes every processed packet. seq is dense and
	// monotone within its lane, with no order across lanes — (lane,
	// seq) identifies a packet; with one producer lane it degenerates
	// to a single global sequence. See serve.Config.OnDecision.
	OnDecision func(shard int, lane uint32, seq uint64, p *Packet, d switchsim.Decision)
	// OnBlacklist observes blacklist transitions the shard controllers
	// decide locally (installs and capacity evictions). It runs on
	// shard goroutines and must be cheap and non-blocking; externally
	// applied operations (the server's ApplyInstall/ApplyRemove/
	// ApplyFlush — the federation apply path) do not fire it. See
	// serve.Config.OnBlacklist.
	OnBlacklist func(shard int, ev controller.Event)
	// Now supplies wall time for throughput stats; nil reports rates
	// over trace time (deterministic replays never consult the wall
	// clock).
	Now func() time.Time
}

// Validate reports every configuration error at once, in the same
// joined-error style as Config.Validate, folding in the per-shard
// DeployConfig's own report. NewServer calls it.
func (c ServeConfig) Validate() error {
	var errs []error
	add := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf("iguard: serve config: "+format, args...))
	}
	if c.Deploy != (DeployConfig{}) {
		if err := c.Deploy.Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	if c.Shards < 0 {
		add("Shards must be non-negative (0 means 1), got %d", c.Shards)
	}
	if c.QueueDepth < 0 {
		add("QueueDepth must be non-negative (0 means default), got %d", c.QueueDepth)
	}
	if c.BatchSize < 0 {
		add("BatchSize must be non-negative (0 means default), got %d", c.BatchSize)
	}
	if c.BatchSize > serve.MaxBatchSize {
		add("BatchSize must be at most %d, got %d", serve.MaxBatchSize, c.BatchSize)
	}
	if c.BatchFlush < 0 {
		add("BatchFlush must be non-negative (0 means default), got %v", c.BatchFlush)
	}
	if c.Producers < 0 {
		add("Producers must be non-negative (0 means 1), got %d", c.Producers)
	}
	if c.Producers > serve.MaxProducers {
		add("Producers must be at most %d, got %d", serve.MaxProducers, c.Producers)
	}
	return errors.Join(errs...)
}

// DefaultServeConfig returns a serving configuration matching the
// evaluation's deployment on four shards with trace-paced sweeps at
// the flow-timeout cadence and serve.DefaultBatchSize-packet batches
// with a 1ms trace-time flush deadline.
func DefaultServeConfig() ServeConfig {
	return ServeConfig{
		Deploy:     DefaultDeployConfig(),
		Shards:     4,
		SweepEvery: 5 * time.Second,
		BatchSize:  serve.DefaultBatchSize,
	}
}

// NewServer validates the config and builds the sharded streaming
// runtime for this detector: each shard owns a private deployment
// (switch + controller) carrying the detector's compiled whitelist,
// and packets are hash-partitioned by flow so the single-goroutine
// data-plane contract holds without hot-path locks. Swap a newly
// loaded model into the running server with srv.Swap(nil,
// newDet.CompiledRules()). See the serve package for the full
// concurrency contract and the batch hand-off semantics.
func (d *Detector) NewServer(cfg ServeConfig) (*serve.Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Deploy == (DeployConfig{}) {
		cfg.Deploy = DefaultDeployConfig()
	}
	return serve.New(serve.Config{
		Shards:      cfg.Shards,
		QueueDepth:  cfg.QueueDepth,
		Policy:      cfg.Policy,
		SweepEvery:  cfg.SweepEvery,
		BatchSize:   cfg.BatchSize,
		BatchFlush:  cfg.BatchFlush,
		Producers:   cfg.Producers,
		OnDecision:  cfg.OnDecision,
		OnBlacklist: cfg.OnBlacklist,
		Now:         cfg.Now,
		NewShard: func(int) serve.Shard {
			// Deploy was validated above, so the unchecked builder is
			// safe here.
			dep := d.newDeployment(cfg.Deploy)
			return serve.Shard{Switch: dep.Switch, Controller: dep.Controller}
		},
	})
}
