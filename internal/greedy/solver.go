package greedy

import (
	"context"
	"fmt"

	"repro/internal/replication"
	"repro/internal/solver"
)

// greedySolver adapts the greedy baseline to the solver registry.
type greedySolver struct{}

func init() { solver.Register(greedySolver{}) }

func (greedySolver) Name() string  { return "greedy" }
func (greedySolver) Label() string { return "Greedy" }
func (greedySolver) Description() string {
	return "centralized greedy of [26]: best benefit per unit of storage until nothing beneficial fits"
}

func (greedySolver) Solve(ctx context.Context, p *replication.Problem, opts solver.Options) (*solver.Outcome, error) {
	if opts.Engine != "" {
		return nil, fmt.Errorf("greedy: unknown engine %q (greedy has a single engine)", opts.Engine)
	}
	cfg := DefaultConfig()
	cfg.Workers = opts.Workers
	out := &solver.Outcome{}
	if opts.OnEvent != nil || opts.RecordEvents {
		placed := 0
		cfg.OnPlace = func(object int32, server int, benefit int64) {
			placed++
			out.Emit(opts, solver.Event{
				Round: placed, Object: object, Server: int32(server), Value: benefit,
			})
		}
	}
	res, err := Solve(ctx, p, cfg)
	if err != nil {
		return nil, err
	}
	out.Schema = res.Schema
	out.Replicas = res.Placed
	out.Work = res.Evaluations
	return out, nil
}
