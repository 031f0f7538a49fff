package agtram

import (
	"context"
	"fmt"

	"repro/internal/mechanism"
	"repro/internal/replication"
	"repro/internal/solver"
)

// Engine names accepted by the "agt-ram" solver's Options.Engine. The five
// engines run the identical mechanism — same allocations, same payments —
// over different execution substrates.
const (
	EngineIncremental = "incremental"
	EngineSync        = "sync"
	EngineDistributed = "distributed"
	EngineNetwork     = "network"
	EngineTCP         = "tcp"
)

// agtSolver adapts the five AGT-RAM engines to the solver registry; the
// facade's old engine sub-switch lives here now, as Options.Engine.
type agtSolver struct{}

func init() { solver.Register(agtSolver{}) }

func (agtSolver) Name() string  { return "agt-ram" }
func (agtSolver) Label() string { return "AGT-RAM" }
func (agtSolver) Description() string {
	return "the paper's mechanism: sealed-bid rounds, Vickrey payments, five interchangeable engines"
}

func (agtSolver) Solve(ctx context.Context, p *replication.Problem, opts solver.Options) (*solver.Outcome, error) {
	cfg := Config{Workers: opts.Workers}
	if opts.FirstPrice {
		cfg.Payment = mechanism.FirstPrice
	}
	if opts.ExactValuation {
		cfg.Valuation = ExactDelta
	}
	engine := opts.Engine
	if engine == "" {
		switch {
		case opts.TCPAddr != "":
			engine = EngineTCP
		case opts.Faults.Enabled() || opts.RoundTimeout > 0:
			// Fault injection and deadlines only make sense against a
			// wire; pick the in-process wire engine by default.
			engine = EngineNetwork
		case opts.ExactValuation:
			// The incremental engine's lazy heaps need the local CoR
			// valuation; the exact-delta ablation runs synchronous.
			engine = EngineSync
		default:
			engine = EngineIncremental
		}
	}
	if (opts.Faults.Enabled() || opts.RoundTimeout > 0) &&
		engine != EngineNetwork && engine != EngineTCP {
		return nil, fmt.Errorf("agtram: faults and round timeouts apply to the wire engines only (network|tcp), not %q", engine)
	}
	cfg.RoundTimeout = opts.RoundTimeout
	cfg.Faults = opts.Faults
	out := &solver.Outcome{}
	if opts.OnEvent != nil || opts.RecordEvents {
		cfg.OnRound = func(al Allocation) {
			out.Emit(opts, solver.Event{
				Round: al.Round + 1, Object: al.Object, Server: al.Server,
				Value: al.Value, Payment: al.Payment,
			})
		}
		cfg.OnEvict = func(ev Eviction) {
			out.Emit(opts, solver.Event{
				Round: ev.Round, Object: -1, Server: int32(ev.Agent), Evicted: true,
			})
		}
	}
	if opts.Warm != nil && engine != EngineIncremental {
		return nil, fmt.Errorf("agtram: warm re-solve is served by the incremental engine only, not %q", engine)
	}
	if opts.Warm != nil && opts.Warm.Problem() != p {
		return nil, fmt.Errorf("agtram: warm schema was built on another problem")
	}
	var (
		res *Result
		err error
	)
	switch engine {
	case EngineIncremental:
		if opts.Warm != nil {
			res, err = SolveIncrementalFrom(ctx, opts.Warm, cfg)
		} else {
			res, err = SolveIncremental(ctx, p, cfg)
		}
	case EngineSync:
		res, err = Solve(ctx, p, cfg)
	case EngineDistributed:
		res, err = SolveDistributed(ctx, p, cfg)
	case EngineNetwork:
		res, err = SolveNetwork(ctx, p, cfg)
	case EngineTCP:
		addr := opts.TCPAddr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		res, err = SolveTCP(ctx, p, cfg, addr)
	default:
		return nil, fmt.Errorf("agtram: unknown engine %q (want incremental|sync|distributed|network|tcp)", engine)
	}
	if err != nil {
		return nil, err
	}
	out.Schema = res.Schema
	out.Replicas = len(res.Allocations)
	out.Work = res.Valuations
	out.Rounds = res.Rounds
	out.Payments = res.Payments
	out.Evictions = res.Evictions
	return out, nil
}
