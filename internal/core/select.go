package core

import (
	"context"
	"fmt"

	"iguard/internal/metrics"
	"iguard/internal/parallel"
)

// Select grid-searches the guided forest's (k, T) by macro F1 on a
// labelled validation set (§4.1 footnote 10). guides holds one guide
// per T grid point, each calibrated at its threshold quantile; kGrid
// lists the node-augmentation counts. Every |guides| × |kGrid|
// candidate trains independently on the shared worker pool
// (opts.Parallelism, which also bounds each candidate's per-tree
// fan-out) into its own grid slot, so the result is identical for
// every worker count. The argmax breaks ties first-wins in T-outer,
// k-inner grid order. Select returns the winning forest and the index
// of the guide it was trained with.
func Select(ctx context.Context, x [][]float64, guides []Guide, kGrid []int, opts Options, valX [][]float64, valY []int) (*Forest, int, error) {
	if len(guides) == 0 || len(kGrid) == 0 {
		return nil, 0, fmt.Errorf("core: select needs at least one guide and one k, got %d and %d", len(guides), len(kGrid))
	}
	if len(valX) != len(valY) {
		return nil, 0, fmt.Errorf("core: select: %d validation rows, %d labels", len(valX), len(valY))
	}
	forests := make([]*Forest, len(guides)*len(kGrid))
	f1s := make([]float64, len(forests))
	err := parallel.For(ctx, opts.Parallelism, len(forests), func(i int) error {
		o := opts
		o.Augment = kGrid[i%len(kGrid)]
		forest, err := FitContext(ctx, x, guides[i/len(kGrid)], o)
		if err != nil {
			return err
		}
		var conf metrics.Confusion
		for vi, v := range valX {
			conf.Add(forest.Predict(v), valY[vi])
		}
		forests[i], f1s[i] = forest, conf.MacroF1()
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	best := 0
	for i, f1 := range f1s {
		if f1 > f1s[best] {
			best = i
		}
	}
	return forests[best], best / len(kGrid), nil
}
