package bench

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/adaptive"
	"repro/internal/exhaustive"
	"repro/internal/hierarchy"
	"repro/internal/replication"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// UpdateRatio reproduces the experiment the paper reports but does not
// plot ("further experiments with various update ratios (5%, 10%, and 20%)
// showed similar plot trends"): the Figure 3 capacity sweep for AGT-RAM
// under three update ratios U% (i.e. R/W = 1 - U/100).
func UpdateRatio(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	m := scaled(paperM, cfg.Scale, 24)
	n := scaled(paperN, cfg.Scale, 120)
	ratios := []float64{5, 10, 20}
	t := &Table{
		Title:    fmt.Sprintf("Update-ratio sweep: AGT-RAM OTC savings versus capacity [M=%d, N=%d]", m, n),
		RowLabel: "capacity%",
		Unit:     "OTC savings %",
	}
	for _, u := range ratios {
		t.Columns = append(t.Columns, fmt.Sprintf("U=%.0f%%", u))
	}
	for _, capacity := range []float64{10, 15, 20, 25, 30, 35, 40} {
		row := Row{Label: fmt.Sprintf("%.0f", capacity)}
		for _, u := range ratios {
			inst, err := repro.NewInstance(repro.InstanceConfig{
				Servers:         m,
				Objects:         n,
				Requests:        requestsFor(n),
				RWRatio:         1 - u/100,
				CapacityPercent: capacity,
				Seed:            cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			res, err := inst.SolveContext(ctx, repro.AGTRAM, &repro.Options{Workers: cfg.Workers})
			if err != nil {
				return nil, err
			}
			row.Values = append(row.Values, res.SavingsPercent)
			cfg.progress("UpdateRatio: C=%.0f%% U=%.0f%% -> %.2f%%", capacity, u, res.SavingsPercent)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Regions measures the Section 7 extension: regional mechanisms at
// different region counts, in both coordination modes, plus a run whose
// central body fails mid-protocol. The headline: hierarchical coordination
// matches the flat mechanism's quality with R (not M) reports reaching the
// top, and the system survives the top's failure with graceful degradation.
func Regions(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	m := scaled(paperM, cfg.Scale/2, 20)
	n := scaled(paperN, cfg.Scale/2, 100)
	flat, err := repro.NewInstance(repro.InstanceConfig{
		Servers: m, Objects: n, Requests: requestsFor(n),
		RWRatio: 0.90, CapacityPercent: 15, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	flatRes, err := flat.SolveContext(ctx, repro.AGTRAM, &repro.Options{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:    fmt.Sprintf("Regions: hierarchical vs autonomous mechanisms [M=%d, N=%d, C=15%%, R/W=0.90; flat AGT-RAM: %.2f%%]", m, n, flatRes.SavingsPercent),
		RowLabel: "regions",
		Unit:     "savings % / decisions",
		Columns:  []string{"hier savings", "auto savings", "fail savings", "top decisions", "auto epochs"},
	}
	base := flat.Problem()
	for _, regions := range []int{1, 2, 4, 8, 16} {
		hier, err := hierarchy.Solve(ctx, base, hierarchy.Config{Regions: regions})
		if err != nil {
			return nil, err
		}
		auto, err := hierarchy.Solve(ctx, base, hierarchy.Config{Regions: regions, Mode: hierarchy.Autonomous})
		if err != nil {
			return nil, err
		}
		fail, err := hierarchy.Solve(ctx, base, hierarchy.Config{Regions: regions, TopFailsAfter: hier.Epochs / 2})
		if err != nil {
			return nil, err
		}
		cfg.progress("Regions: R=%d hier=%.2f%% auto=%.2f%% fail=%.2f%%",
			regions, hier.Schema.Savings(), auto.Schema.Savings(), fail.Schema.Savings())
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("%d", regions),
			Values: []float64{
				hier.Schema.Savings(), auto.Schema.Savings(), fail.Schema.Savings(),
				float64(hier.TopDecisions), float64(auto.Epochs),
			},
		})
	}
	return t, nil
}

// Adaptive measures the migration protocol over drifting demand: per-epoch
// savings with migration versus a frozen first placement.
func Adaptive(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	m := scaled(paperM, cfg.Scale/2, 20)
	n := scaled(paperN, cfg.Scale/2, 100)
	const epochs = 6
	ws, err := adaptive.GenerateEpochs(workload.SyntheticConfig{
		Servers: m, Objects: n, Requests: requestsFor(n), RWRatio: 0.90, Seed: cfg.Seed,
	}, epochs)
	if err != nil {
		return nil, err
	}
	r := stats.NewRNG(stats.Mix64(cfg.Seed, 3))
	g, err := topology.Random(m, 0.4, topology.DefaultWeights, r)
	if err != nil {
		return nil, err
	}
	caps, err := replication.GenerateCapacities(ws[0], 15, r)
	if err != nil {
		return nil, err
	}
	cost := topology.AllPairs(g, 0)

	migrating, err := adaptive.Run(ctx, cost, ws, caps, adaptive.Config{})
	if err != nil {
		return nil, err
	}
	frozen, err := adaptive.Run(ctx, cost, ws, caps, adaptive.Config{FreezePlacement: true})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:    fmt.Sprintf("Adaptive: migration under demand drift [M=%d, N=%d, C=15%%, R/W=0.90]", m, n),
		RowLabel: "epoch",
		Unit:     "savings % / replica moves",
		Columns:  []string{"migrating savings", "frozen savings", "dropped", "added"},
	}
	for e := 0; e < epochs; e++ {
		a, f := migrating.Epochs[e], frozen.Epochs[e]
		cfg.progress("Adaptive: epoch %d migrating=%.2f%% frozen=%.2f%%", e, a.Savings, f.Savings)
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("%d", e),
			Values: []float64{a.Savings, f.Savings, float64(a.Dropped), float64(a.Added)},
		})
	}
	t.Rows = append(t.Rows, Row{
		Label:  "mean",
		Values: []float64{migrating.MeanSavings(), frozen.MeanSavings(), 0, 0},
	})
	return t, nil
}

// OptimalityGap measures, on tiny instances solvable to proven optimality,
// how far each heuristic lands from the true optimum — the calibration
// view the paper's NP-completeness discussion implies but cannot measure
// at its scale. Values are mean percentage cost above optimal over the
// sampled instances (0 = always optimal).
func OptimalityGap(ctx context.Context, cfg Config, instances int) (*Table, error) {
	cfg = cfg.withDefaults()
	if instances <= 0 {
		instances = 12
	}
	gaps := make(map[repro.Method][]float64, len(cfg.Methods))
	optimal := make(map[repro.Method]int, len(cfg.Methods))
	for run := 0; run < instances; run++ {
		seed := stats.Mix64(cfg.Seed, int64(run+1000))
		prob, err := tinyProblem(seed)
		if err != nil {
			return nil, err
		}
		opt, err := exhaustive.Solve(ctx, prob, 0)
		if err != nil {
			return nil, err
		}
		optCost := opt.Schema.TotalCost()
		for _, meth := range cfg.Methods {
			prob2, err := tinyProblem(seed)
			if err != nil {
				return nil, err
			}
			cost, err := solveDirect(ctx, meth, prob2, seed, cfg.GRAGenerations)
			if err != nil {
				return nil, err
			}
			gap := 0.0
			if optCost > 0 {
				gap = 100 * float64(cost-optCost) / float64(optCost)
			}
			gaps[meth] = append(gaps[meth], gap)
			if cost == optCost {
				optimal[meth]++
			}
		}
		cfg.progress("OptimalityGap: instance %d/%d done", run+1, instances)
	}
	t := &Table{
		Title:    fmt.Sprintf("Optimality gap on %d tiny instances (proven optimum via branch and bound)", instances),
		RowLabel: "method",
		Unit:     "% cost above optimal",
		Columns:  []string{"mean gap %", "max gap %", "optimal count"},
	}
	for _, meth := range cfg.Methods {
		sum := stats.Summarize(gaps[meth])
		t.Rows = append(t.Rows, Row{
			Label:  repro.MethodLabel(meth),
			Values: []float64{sum.Mean, sum.Max, float64(optimal[meth])},
		})
	}
	return t, nil
}

// tinyProblem builds a 4x6 instance small enough for exhaustive search.
func tinyProblem(seed int64) (*replication.Problem, error) {
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Servers: 4, Objects: 6, Requests: 800, RWRatio: 0.85,
		DemandFraction: 0.6, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	r := stats.NewRNG(seed + 1)
	g, err := topology.Random(4, 0.5, topology.DefaultWeights, r)
	if err != nil {
		return nil, err
	}
	caps, err := replication.GenerateCapacities(w, 20, r)
	if err != nil {
		return nil, err
	}
	return replication.NewProblem(topology.AllPairs(g, 1), w, caps)
}

// solveDirect runs a method against a prebuilt problem (the facade only
// builds its own instances) and returns the final OTC. Every method goes
// through the same solver registry the facade uses, so there is no second
// method switch to drift out of sync.
func solveDirect(ctx context.Context, meth repro.Method, prob *replication.Problem, seed int64, gens int) (int64, error) {
	s, ok := solver.Lookup(string(meth))
	if !ok {
		return 0, fmt.Errorf("bench: unknown method %q", meth)
	}
	out, err := s.Solve(ctx, prob, solver.Options{Seed: seed, GRAGenerations: gens})
	if err != nil {
		return 0, err
	}
	return out.Schema.TotalCost(), nil
}
