package bench

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/distoracle"
	"repro/internal/greedy"
	"repro/internal/mechanism"
	"repro/internal/replication"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// AblationPayment quantifies why the paper's Axiom 5 payment matters: for a
// batch of synthetic bid scenarios, it measures the best utility gain an
// agent can extract by misreporting under the second-price rule (always 0)
// versus the first-price rule (strictly positive whenever shading pays).
func AblationPayment(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	r := stats.NewRNG(cfg.Seed)
	t := &Table{
		Title:    "Ablation A: manipulation gain by payment rule (Axiom 5)",
		RowLabel: "scenario batch",
		Unit:     "mean best misreport gain (utility units)",
		Columns:  []string{"second-price", "first-price"},
	}
	for batch := 0; batch < 5; batch++ {
		var gainSecond, gainFirst float64
		const scenarios = 200
		for sc := 0; sc < scenarios; sc++ {
			trueVal := r.Int64Range(100, 100000)
			others := make([]mechanism.Bid, r.IntnInclusive(1, 8))
			for i := range others {
				others[i] = mechanism.Bid{Agent: i, Value: r.Int64Range(100, 100000)}
			}
			var mis []int64
			for f := 1; f <= 8; f++ {
				mis = append(mis, trueVal*int64(f)/4) // 0.25x .. 2x
			}
			gainSecond += float64(mechanism.ManipulationGain(mechanism.SecondPrice, trueVal, mis, others))
			gainFirst += float64(mechanism.ManipulationGain(mechanism.FirstPrice, trueVal, mis, others))
		}
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("batch %d (%d scenarios)", batch+1, scenarios),
			Values: []float64{gainSecond / scenarios, gainFirst / scenarios},
		})
	}
	return t, nil
}

// AblationValuation compares the paper's local CoR valuation against the
// exact global OTC delta an omniscient agent could compute: solution
// quality (savings) and the per-run wall time of each.
func AblationValuation(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	m := scaled(paperM, cfg.Scale/2, 20)
	n := scaled(paperN, cfg.Scale/2, 100)
	t := &Table{
		Title:    fmt.Sprintf("Ablation B: AGT-RAM valuation rule [M=%d, N=%d, R/W=0.90]", m, n),
		RowLabel: "capacity%",
		Unit:     "savings % | seconds",
		Columns:  []string{"local savings", "exact savings", "local s", "exact s"},
	}
	for _, capacity := range []float64{10, 20, 30} {
		icfg := repro.InstanceConfig{
			Servers: m, Objects: n, Requests: requestsFor(n),
			RWRatio: 0.90, CapacityPercent: capacity, Seed: cfg.Seed,
		}
		instL, err := repro.NewInstance(icfg)
		if err != nil {
			return nil, err
		}
		local, err := instL.SolveContext(ctx, repro.AGTRAM, &repro.Options{Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		instE, err := repro.NewInstance(icfg)
		if err != nil {
			return nil, err
		}
		exact, err := instE.SolveContext(ctx, repro.AGTRAM, &repro.Options{Workers: cfg.Workers, Sync: true, ExactValuation: true})
		if err != nil {
			return nil, err
		}
		cfg.progress("Ablation B: C=%.0f%% local=%.2f%% exact=%.2f%%", capacity, local.SavingsPercent, exact.SavingsPercent)
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("%.0f", capacity),
			Values: []float64{
				local.SavingsPercent, exact.SavingsPercent,
				local.Runtime.Seconds(), exact.Runtime.Seconds(),
			},
		})
	}
	return t, nil
}

// AblationEngine compares the five AGT-RAM engines (event-driven
// incremental, synchronous-parallel, and the one message-passing game over
// channels, over framed net.Pipe links and over framed loopback TCP) —
// identical allocations, different execution substrate — and the centralized raw-benefit scan (greedy
// without density) as the non-mechanism control. The valuations column
// isolates the incremental engine's algorithmic win from wall-clock noise.
// Config.RoundTimeout and Config.Faults apply to the two wire rows,
// measuring the mechanism's degradation under an imperfect network.
func AblationEngine(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	m := scaled(paperM, cfg.Scale/2, 20)
	n := scaled(paperN, cfg.Scale/2, 100)
	icfg := repro.InstanceConfig{
		Servers: m, Objects: n, Requests: requestsFor(n),
		RWRatio: 0.90, CapacityPercent: 20, Seed: cfg.Seed,
	}
	t := &Table{
		Title:    fmt.Sprintf("Ablation C: AGT-RAM engines [M=%d, N=%d, C=20%%, R/W=0.90]", m, n),
		RowLabel: "engine",
		Unit:     "savings % / seconds / valuation computations",
		Columns:  []string{"savings", "seconds", "valuations"},
	}
	engines := []struct {
		name string
		opts repro.Options
	}{
		{"incremental", repro.Options{Workers: cfg.Workers}},
		{"sync-parallel", repro.Options{Workers: cfg.Workers, Sync: true}},
		{"goroutine-msgs", repro.Options{Workers: cfg.Workers, Distributed: true}},
		{"frames-netpipe", repro.Options{Workers: cfg.Workers, Network: true,
			RoundTimeout: cfg.RoundTimeout, Faults: cfg.Faults}},
		{"frames-tcp", repro.Options{Workers: cfg.Workers, TCPAddr: "127.0.0.1:0",
			RoundTimeout: cfg.RoundTimeout, Faults: cfg.Faults}},
	}
	for _, e := range engines {
		inst, err := repro.NewInstance(icfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := inst.SolveContext(ctx, repro.AGTRAM, &e.opts)
		if err != nil {
			return nil, err
		}
		cfg.progress("Ablation C: %s %.2f%% in %s (%d valuations, %d evictions)",
			e.name, res.SavingsPercent, time.Since(start).Round(time.Millisecond), res.Work, len(res.Evictions))
		t.Rows = append(t.Rows, Row{Label: e.name,
			Values: []float64{res.SavingsPercent, res.Runtime.Seconds(), float64(res.Work)}})
	}
	// Control: the same allocation rule run as one centralized scan, greedy
	// keyed by raw benefit (the registry's greedy is the density rule of [26]).
	inst, err := repro.NewInstance(icfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := greedy.Solve(ctx, inst.Problem(), greedy.Config{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, Row{Label: "centralized-greedy",
		Values: []float64{res.Schema.Savings(), time.Since(start).Seconds(), float64(res.Evaluations)}})
	return t, nil
}

// AblationOracle quantifies the landmark distance oracle's approximation
// cost in solution quality: the incremental AGT-RAM savings with the exact
// dense matrix versus the K-landmark estimate, on three topology families
// (sparse random, grid, random recursive tree) at the Table-1 scale point
// and a large point that reaches M=5000 at the default Scale — plus the
// oracle's measured distance-error distribution on each graph. The delta
// column is the quality the O(KM)-memory oracle gives up; the CSR-lazy and
// tree oracles are bit-exact and need no quality ablation.
func AblationOracle(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	const landmarks = 64
	small := scaled(paperM, cfg.Scale/2, 20)
	// 62500*0.08 = 5000 at the default Scale; the cap keeps scale-up runs
	// off the dense oracle's O(M²) wall (the exact baseline is the cost).
	large := scaled(62500, cfg.Scale, 400)
	if large > 5000 {
		large = 5000
	}
	t := &Table{
		Title:    fmt.Sprintf("Ablation D: landmark oracle vs exact distances [K=%d, C=20%%, R/W=0.90]", landmarks),
		RowLabel: "topology / M",
		Unit:     "savings % | relative distance error",
		Columns:  []string{"dense savings", "landmark savings", "delta pp", "mean rel err", "p95 rel err"},
	}
	for _, m := range []int{small, large} {
		for _, kind := range []string{"random", "grid", "tree"} {
			g, err := oracleAblationGraph(kind, m, cfg.Seed)
			if err != nil {
				return nil, err
			}
			n := g.N() + g.N()/2
			w, err := workload.Synthetic(workload.SyntheticConfig{
				Servers: g.N(), Objects: n, Requests: requestsFor(n), RWRatio: 0.90, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			caps, err := replication.GenerateCapacities(w, 20, stats.NewRNG(stats.Mix64(cfg.Seed, 17)))
			if err != nil {
				return nil, err
			}
			lm, err := distoracle.NewLandmark(g, landmarks, cfg.Workers)
			if err != nil {
				return nil, err
			}
			denseProb, err := replication.NewProblem(topology.AllPairs(g, cfg.Workers), w, caps)
			if err != nil {
				return nil, err
			}
			denseSchema, err := oracleSolve(ctx, denseProb, cfg)
			if err != nil {
				return nil, err
			}
			denseSav := denseSchema.Savings()
			lmProb, err := replication.NewProblem(lm, w, caps)
			if err != nil {
				return nil, err
			}
			lmSchema, err := oracleSolve(ctx, lmProb, cfg)
			if err != nil {
				return nil, err
			}
			// Re-cost the landmark-guided placement under the exact metric:
			// savings percentages are only comparable in one metric, and the
			// approximate one flatters itself.
			lmSav, err := recostSavings(denseProb, lmSchema)
			if err != nil {
				return nil, err
			}
			ed := lm.ErrorStats(g, 0, stats.Mix64(cfg.Seed, 23))
			cfg.progress("Ablation D: %s M=%d dense=%.2f%% landmark=%.2f%% err mean=%.4f p95=%.4f",
				kind, g.N(), denseSav, lmSav, ed.MeanRel, ed.P95Rel)
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("%s M=%d", kind, g.N()),
				Values: []float64{
					denseSav, lmSav, denseSav - lmSav, ed.MeanRel, ed.P95Rel,
				},
			})
		}
	}
	return t, nil
}

// oracleAblationGraph builds one ablation topology. The random family
// holds average degree near 12 instead of a fixed edge probability: at
// M=5000, p=0.4 would mean ~5M edges and a near-uniform metric where any
// oracle looks exact.
func oracleAblationGraph(kind string, m int, seed int64) (*topology.Graph, error) {
	r := stats.NewRNG(stats.Mix64(seed, 29))
	switch kind {
	case "random":
		p := 12.0 / float64(m-1)
		if p > 0.4 {
			p = 0.4
		}
		return topology.Random(m, p, topology.DefaultWeights, r)
	case "grid":
		// The most-square grid whose dimensions multiply to exactly m.
		rows := int(math.Sqrt(float64(m)))
		for m%rows != 0 {
			rows--
		}
		return topology.Grid(rows, m/rows), nil
	case "tree":
		return topology.RandomTree(m, topology.DefaultWeights, r)
	}
	return nil, fmt.Errorf("bench: unknown ablation topology %q", kind)
}

// oracleSolve runs the incremental AGT-RAM solver against the problem and
// returns the final schema. The workload and capacities are shared across
// oracles by construction: only the distance function differs between the
// compared rows.
func oracleSolve(ctx context.Context, prob *replication.Problem, cfg Config) (*replication.Schema, error) {
	s, ok := solver.Lookup(string(repro.AGTRAM))
	if !ok {
		return nil, fmt.Errorf("bench: AGT-RAM solver not registered")
	}
	out, err := s.Solve(ctx, prob, solver.Options{Seed: cfg.Seed, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	return out.Schema, nil
}

// recostSavings carries a placement found under one metric onto prob (the
// exact-metric problem) and reports its savings there. Feasibility is
// metric-independent — sizes and capacities are identical — so the carry
// drops nothing.
func recostSavings(prob *replication.Problem, from *replication.Schema) (float64, error) {
	s, dropped := prob.CarryOver(from.Matrix())
	if dropped > 0 {
		return 0, fmt.Errorf("bench: %d replicas do not fit the exact-metric problem", dropped)
	}
	return s.Savings(), nil
}
