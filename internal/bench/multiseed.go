package bench

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/stats"
)

// MultiSeed runs the paper's headline comparison across many independent
// instances (one per seed) and reports mean and standard deviation of the
// OTC savings per method — the statistical-robustness view single-seed
// tables cannot give. Rows: one per method; columns: mean, std, min, max,
// and wins (count of seeds where the method achieved the best savings,
// ties counted for every winner).
func MultiSeed(ctx context.Context, cfg Config, runs int) (*Table, error) {
	cfg = cfg.withDefaults()
	if runs <= 0 {
		runs = 10
	}
	m := scaled(paperM, cfg.Scale/2, 20)
	n := scaled(paperN, cfg.Scale/2, 100)

	samples := make(map[repro.Method][]float64, len(cfg.Methods))
	wins := make(map[repro.Method]int, len(cfg.Methods))
	for run := 0; run < runs; run++ {
		seed := stats.Mix64(cfg.Seed, int64(run+1))
		icfg := repro.InstanceConfig{
			Servers:         m,
			Objects:         n,
			Requests:        requestsFor(n),
			RWRatio:         0.90,
			CapacityPercent: 15,
			Seed:            seed,
		}
		results, err := runAll(ctx, cfg, icfg)
		if err != nil {
			return nil, err
		}
		best := -1.0
		for _, meth := range cfg.Methods {
			s := results[meth].SavingsPercent
			samples[meth] = append(samples[meth], s)
			if s > best {
				best = s
			}
		}
		for _, meth := range cfg.Methods {
			if results[meth].SavingsPercent >= best-1e-9 {
				wins[meth]++
			}
		}
		cfg.progress("MultiSeed: run %d/%d done", run+1, runs)
	}

	t := &Table{
		Title: fmt.Sprintf("Multi-seed robustness: OTC savings over %d instances [M=%d, N=%d, C=15%%, R/W=0.90]",
			runs, m, n),
		RowLabel: "method",
		Unit:     "OTC savings %",
		Columns:  []string{"mean", "std", "min", "max", "wins"},
	}
	for _, meth := range cfg.Methods {
		sum := stats.Summarize(samples[meth])
		t.Rows = append(t.Rows, Row{
			Label:  repro.MethodLabel(meth),
			Values: []float64{sum.Mean, sum.Std, sum.Min, sum.Max, float64(wins[meth])},
		})
	}
	return t, nil
}
