package agtram

import (
	"context"
	"fmt"

	"repro/internal/candidates"
	"repro/internal/mechanism"
	"repro/internal/pool"
	"repro/internal/replication"
)

// SolveIncremental runs AGT-RAM event-driven: instead of re-scanning every
// agent's full candidate list each round (the PARFOR of Figure 2, which
// Solve reproduces literally), it caches each agent's dominant bid and,
// after each broadcast OMAX, re-prices only the agents whose valuations can
// actually have changed — the round's winner, and demanders of the placed
// object whose nearest-neighbor cost dropped. Everyone else's cached bid is
// still exact, because a broadcast for object k can only lower benefits of
// candidates for k.
//
// Exactness rests on monotonicity: a candidate's benefit is non-increasing
// over a run (nnCost only falls, residual capacity only shrinks), so every
// cached value is an upper bound on the current one. The kernel (kernel.go)
// exploits that with lazy max-heaps over flat arenas — one per agent over
// its candidates, one over the agents' cached dominant bids — and settles
// each round's (winner, second-best) by refreshing only the stale bids that
// reach the top two. The data layout is struct-of-arrays end to end,
// allocated once up front, so steady-state rounds allocate nothing.
// cfg.Workers fans out only the arena build; the rounds run serially.
//
// The allocations, round count, and payments are bit-identical to Solve's,
// and every Result field is the same for every worker count; only
// Result.Valuations differs from Solve's in magnitude (see its doc
// comment), which is the point: the engine performs strictly fewer
// valuation computations.
//
// The ExactDelta valuation is rejected: it needs the shared schema and is
// served by Solve (the ablation path).
//
// ctx is checked at the top of every round, same contract as Solve.
func SolveIncremental(ctx context.Context, p *replication.Problem, cfg Config) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("agtram: nil problem")
	}
	if cfg.Valuation == ExactDelta {
		return nil, fmt.Errorf("agtram: exact-delta valuation re-prices against global state every round; use Solve")
	}
	return solveIncrementalOn(ctx, p.NewSchema(), false, cfg)
}

// SolveIncrementalFrom is the warm re-solve entry point: it continues the
// mechanism from an existing placement instead of the primary-only start.
// Agents price their candidates against base's NN tables and residual
// capacities and the auction then only adds replicas that are still
// beneficial — the online controller's low-churn alternative to solving the
// drifted problem from scratch. base is cloned; neither it nor its problem
// is mutated. Exactness is unchanged: benefits are non-increasing from any
// start state, so the lazy-heap argument of SolveIncremental holds verbatim.
//
// With a primary-only base the result is bit-identical to SolveIncremental.
func SolveIncrementalFrom(ctx context.Context, base *replication.Schema, cfg Config) (*Result, error) {
	if base == nil {
		return nil, fmt.Errorf("agtram: nil base schema")
	}
	if cfg.Valuation == ExactDelta {
		return nil, fmt.Errorf("agtram: exact-delta valuation re-prices against global state every round; use Solve")
	}
	return solveIncrementalOn(ctx, base.Clone(), base.Placed() > 0, cfg)
}

// solveIncrementalOn owns schema and runs the event-driven mechanism on it:
// arena construction (fanned out — servers are independent), then the round
// loop over the kernel. The kernel never reads the schema; placements reach
// it only through its own award/broadcast path, exactly as broadcasts reach
// a remote server, and the schema stays the outcome bookkeeper.
func solveIncrementalOn(ctx context.Context, schema *replication.Schema, warm bool, cfg Config) (*Result, error) {
	p := schema.Problem()
	res := &Result{Schema: schema, Payments: make([]int64, p.M)}
	// Rounds typically run to a few replicas per server; presizing keeps the
	// trace append out of the allocator for most solves.
	res.Allocations = make([]Allocation, 0, 4*p.M)

	pl := pool.New(cfg.workers())
	defer pl.Close()
	var ar *candidates.Arena
	if warm {
		ar = candidates.BuildArenaFrom(schema, pl)
	} else {
		ar = candidates.BuildArena(p, pl)
	}

	k := newKernel(p, ar, cfg.Payment)
	res.Valuations += k.seedValuations()

	for cfg.MaxRounds <= 0 || res.Rounds < cfg.MaxRounds {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("agtram: %w", err)
		}
		winner, value, second, ok := k.settle(&res.Valuations)
		if !ok {
			break
		}
		payment := second
		if cfg.Payment == mechanism.FirstPrice {
			payment = value
		}
		obj := k.bidObj[winner]
		if _, err := schema.PlaceReplica(obj, int(winner)); err != nil {
			return nil, fmt.Errorf("agtram: winning bid infeasible: %w", err)
		}
		alloc := Allocation{
			Round: res.Rounds, Object: obj, Server: winner,
			Value: value, Payment: payment,
		}
		res.Allocations = append(res.Allocations, alloc)
		res.Payments[winner] += payment
		res.Rounds++
		if cfg.OnRound != nil {
			cfg.OnRound(alloc)
		}
		k.award(winner)
		k.broadcast(obj, winner)
	}
	return res, nil
}
