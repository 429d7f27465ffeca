package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"iguard/internal/autoencoder"
	"iguard/internal/core"
	"iguard/internal/features"
	"iguard/internal/mathx"
	"iguard/internal/metrics"
	"iguard/internal/traffic"
)

// calibrateInPlace is Ensemble.Calibrate as the serial grid used it:
// each member's threshold is the quantile of its own unsorted error
// slice, through mathx.Quantile.
func calibrateInPlace(ens *autoencoder.Ensemble, benign [][]float64, q float64) {
	for i, res := range ens.MemberErrors(benign) {
		ens.Members[i].Threshold = mathx.Quantile(res, q)
	}
}

// serialGrid is the lab's (k, T) search as it stood before core.Select,
// kept verbatim as the oracle: a serial T-outer, k-inner loop that
// recalibrates the live ensemble in place, keeps the first strictly
// better validation macro F1, and leaves the ensemble calibrated at the
// winning quantile. It also returns every candidate's F1 in grid order.
func serialGrid(ens *autoencoder.Ensemble, calib, trainX, valX [][]float64, valY []int, guardOpts core.Options, kGrid []int, tGrid []float64) (*core.Forest, []float64, error) {
	var guard *core.Forest
	var f1s []float64
	bestF1 := -1.0
	bestQ := tGrid[0]
	for _, q := range tGrid {
		calibrateInPlace(ens, calib, q)
		for _, k := range kGrid {
			opts := guardOpts
			opts.Augment = k
			candidate, err := core.Fit(trainX, ens, opts)
			if err != nil {
				return nil, nil, fmt.Errorf("experiments: guard fit (k=%d, q=%v): %w", k, q, err)
			}
			preds := make([]int, len(valX))
			for i, x := range valX {
				preds[i] = candidate.Predict(x)
			}
			f1, err := metrics.MacroF1Score(preds, valY)
			if err != nil {
				return nil, nil, fmt.Errorf("experiments: validation F1 (k=%d, q=%v): %w", k, q, err)
			}
			f1s = append(f1s, f1)
			if f1 > bestF1 {
				bestF1 = f1
				bestQ = q
				guard = candidate
			}
		}
	}
	calibrateInPlace(ens, calib, bestQ)
	return guard, f1s, nil
}

// TestSelectMatchesSerialGrid pins core.Select, fed one calibrated
// ensemble view per T by Ensemble.QuantileThresholds, to the serial
// calibrate-in-place grid it replaced: the same forest byte for byte
// (JSON) and the same winning thresholds. It covers both calibration
// sets the callers use — the benign training rows (iguard.Train) and
// the benign validation rows (the lab) — and a grid where every
// candidate ties on F1, where only a first-wins tie-break in T-outer,
// k-inner order picks the oracle's forest.
func TestSelectMatchesSerialGrid(t *testing.T) {
	cfg := QuickLabConfig()
	ds, err := BuildDataset(traffic.Mirai, cfg.Data)
	if err != nil {
		t.Fatal(err)
	}
	ens := autoencoder.NewGuide(mathx.NewRand(cfg.Data.Seed+1000), features.FLDim)
	ens.Fit(ds.TrainX, autoencoder.TrainOptions{Epochs: 10, BatchSize: cfg.AEBatch, LR: cfg.AELR, Rand: mathx.NewRand(cfg.Data.Seed + 1001)})
	opts := cfg.GuardOpts
	opts.Seed = cfg.Data.Seed + 2000
	opts.Bounds = features.Universe(features.FLDim)
	kGrid := []int{0, 8}
	tGrid := []float64{0.90, 0.97}

	cases := []struct {
		name       string
		calib      [][]float64
		valX       [][]float64
		valY       []int
		wantAllTie bool
	}{
		{"calibrate-on-train", ds.TrainX, ds.ValX, ds.ValY, false},
		{"calibrate-on-benign-val", benignOnly(ds.ValX, ds.ValY), ds.ValX, ds.ValY, false},
		// No validation rows: every candidate scores macro F1 0.
		{"all-tied", ds.TrainX, nil, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			thresholds := ens.QuantileThresholds(tc.calib, tGrid)
			guides := make([]core.Guide, len(thresholds))
			for i, ths := range thresholds {
				guides[i] = ens.WithThresholds(ths)
			}
			par := opts
			par.Parallelism = 4
			got, ti, err := core.Select(context.Background(), ds.TrainX, guides, kGrid, par, tc.valX, tc.valY)
			if err != nil {
				t.Fatal(err)
			}

			oracle := &autoencoder.Ensemble{Members: append([]autoencoder.Member(nil), ens.Members...)}
			serial := opts
			serial.Parallelism = 1
			want, f1s, err := serialGrid(oracle, tc.calib, ds.TrainX, tc.valX, tc.valY, serial, kGrid, tGrid)
			if err != nil {
				t.Fatal(err)
			}
			tied := true
			for _, f1 := range f1s {
				tied = tied && f1 == f1s[0]
			}
			if tied != tc.wantAllTie {
				t.Fatalf("F1s %v: all tied = %v, want %v", f1s, tied, tc.wantAllTie)
			}

			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("selected forest differs from the serial grid's (guide %d of %d; F1s %v)", ti, len(tGrid), f1s)
			}
			for mi, m := range oracle.Members {
				if g := thresholds[ti][mi]; g != m.Threshold {
					t.Errorf("member %d threshold %v, serial grid %v", mi, g, m.Threshold)
				}
			}
		})
	}
	if ths := ens.QuantileThresholds(ds.TrainX, tGrid); ths[0][0] == ths[len(ths)-1][0] {
		t.Fatalf("threshold grid ends coincide (%v); a last-wins tie-break would go unseen", ths)
	}
}
