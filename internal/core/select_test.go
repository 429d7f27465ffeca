package core

import (
	"context"
	"testing"
)

// TestSelectPicksGuideByValidationF1 pins the (k, T) search on a known
// answer: validation labels follow a cut at 0.7, so of three oracle
// guides cut at 0.3, 0.7 and 0.9 the forest grown under the 0.7 guide
// must win, and Select must report that guide's index.
func TestSelectPicksGuideByValidationF1(t *testing.T) {
	guides := []Guide{oracleGuide{cut: 0.3}, oracleGuide{cut: 0.7}, oracleGuide{cut: 0.9}}
	valX := mixedData(22, 400, 3)
	valY := make([]int, len(valX))
	for i, x := range valX {
		valY[i] = oracleGuide{cut: 0.7}.Predict(x)
	}
	opts := DefaultOptions()
	opts.Trees = 5
	opts.SubSample = 128
	opts.Seed = 21
	f, ti, err := Select(context.Background(), mixedData(21, 400, 3), guides, []int{0, 32}, opts, valX, valY)
	if err != nil {
		t.Fatal(err)
	}
	if ti != 1 {
		t.Fatalf("selected guide %d, want 1 (the cut the labels follow)", ti)
	}
	if aug := f.TrainedOptions().Augment; aug != 0 && aug != 32 {
		t.Errorf("selected forest has Augment %d, not a grid value", aug)
	}
}

func TestSelectValidation(t *testing.T) {
	x := mixedData(1, 10, 2)
	g := []Guide{oracleGuide{cut: 0.5}}
	ctx := context.Background()
	if _, _, err := Select(ctx, x, nil, []int{0}, DefaultOptions(), nil, nil); err == nil {
		t.Error("want error on an empty T grid")
	}
	if _, _, err := Select(ctx, x, g, nil, DefaultOptions(), nil, nil); err == nil {
		t.Error("want error on an empty k grid")
	}
	if _, _, err := Select(ctx, x, g, []int{0}, DefaultOptions(), x, []int{0}); err == nil {
		t.Error("want error on a validation row/label length mismatch")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := Select(cancelled, x, g, []int{0}, DefaultOptions(), nil, nil); err != context.Canceled {
		t.Errorf("cancelled select: err=%v want context.Canceled", err)
	}
}
