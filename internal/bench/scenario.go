package bench

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Scenarios benchmarks every configured method across the canonical
// adversarial-workload matrix (flash crowd, diurnal wave, correlated
// failures, rolling topology): one fresh controller per (scenario, method)
// cell ingests the scenario's delta schedule, re-solves after every tick,
// and the cell reports the OTC savings of the placement it ended on. Rows
// are scenarios; a trailing "steady" row runs no deltas at all, anchoring
// each method's undisturbed savings on the same instance.
func Scenarios(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	m := scaled(paperM, cfg.Scale/2, 16)
	n := scaled(paperN, cfg.Scale/2, 60)
	icfg := repro.InstanceConfig{
		Servers:         m,
		Objects:         n,
		Requests:        requestsFor(n),
		RWRatio:         0.85,
		CapacityPercent: 20,
		Seed:            cfg.Seed,
	}

	t := &Table{
		Title: fmt.Sprintf("Scenario matrix: OTC savings after adversarial churn [M=%d, N=%d, C=20%%, R/W=0.85]",
			m, n),
		RowLabel: "scenario",
		Unit:     "OTC savings %",
		Columns:  methodColumns(cfg.Methods),
	}

	names := append(sim.ScenarioNames(), "steady")
	for _, name := range names {
		row := Row{Label: name, Values: make([]float64, len(cfg.Methods))}
		for mi, meth := range cfg.Methods {
			inst, err := repro.NewInstance(icfg)
			if err != nil {
				return nil, fmt.Errorf("bench: scenario instance: %w", err)
			}
			p := inst.Problem()
			ctrl, err := online.New(p.Cost, p.Work, p.Capacity, online.Config{
				Method:  string(meth),
				Workers: cfg.Workers,
				Seed:    stats.Mix64(cfg.Seed, int64(len(meth))),
			})
			if err != nil {
				return nil, fmt.Errorf("bench: scenario controller for %s: %w", meth, err)
			}
			start := time.Now()
			var savings float64
			if name == "steady" {
				if err := ctrl.SolveNow(ctx); err != nil {
					ctrl.Close()
					return nil, fmt.Errorf("bench: steady solve with %s: %w", meth, err)
				}
				savings = ctrl.Current().Schema.Savings()
				cfg.progress("steady/%s: savings %.2f%% in %s",
					repro.MethodLabel(meth), savings, time.Since(start).Round(time.Millisecond))
			} else {
				gen, err := sim.NewScenario(name, sim.ShapeOf(p), stats.Mix64(cfg.Seed, 0x5ce9))
				if err != nil {
					ctrl.Close()
					return nil, err
				}
				res, err := sim.RunScenario(ctx, ctrl, gen, true, 0)
				if err != nil {
					ctrl.Close()
					return nil, fmt.Errorf("bench: scenario %s with %s: %w", name, meth, err)
				}
				savings = res.FinalSavings
				cfg.progress("%s/%s: savings %.2f%%, %d solves, %d work in %s",
					name, repro.MethodLabel(meth), savings, res.Solves, res.SolverWork,
					time.Since(start).Round(time.Millisecond))
			}
			ctrl.Close()
			row.Values[mi] = savings
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
