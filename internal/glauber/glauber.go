// Package glauber implements a Glauber-dynamics annealing solver for the
// DRP: the stochastic local-search family the registry lacked, after
// Etesami's distributed computation for the non-metric data placement
// problem using Glauber dynamics (PAPERS.md).
//
// The state is the placement itself — per-server replica sets under the
// capacity constraint — and one move is a single-site flip: pick a
// candidate (server, object) pair and propose toggling that replica. The
// proposal is accepted with the Metropolis rule against the exact OTC
// delta (Schema.DeltaIfPlaced / DeltaIfRemoved), so downhill moves always
// land and uphill moves land with probability exp(-Δ/T). The temperature
// follows a geometric schedule from a landscape-derived T0 down to
// CoolTo·T0, and the best placement ever visited — not the final chain
// state — is returned after a deterministic zero-temperature quench that
// applies improving flips until none remains, so the result is at least a
// single-flip local optimum.
//
// Determinism boundary: the chain is a single goroutine drawing from one
// seeded stream, so a fixed (problem, Config) pair reproduces the identical
// placement bit-for-bit; Workers-style parallelism is deliberately absent
// because racing acceptances would trade reproducibility for speed.
package glauber

import (
	"context"
	"fmt"
	"math"

	"repro/internal/candidates"
	"repro/internal/replication"
	"repro/internal/stats"
)

// Config tunes the chain.
type Config struct {
	// Sweeps is the annealing budget: each sweep proposes one flip per
	// candidate pair. Zero or negative picks DefaultSweeps for the problem's
	// size; a fixed positive value is used verbatim, so fixed-(seed, sweeps)
	// runs stay bit-reproducible across default changes.
	Sweeps int
	// CoolTo is the final temperature as a fraction of the initial one
	// (default 1e-3); the per-sweep schedule is geometric between them.
	CoolTo float64
	// Seed seeds the chain's single random stream.
	Seed int64
	// Warm, when non-nil, starts the chain from a clone of this placement
	// instead of the primary-only schema. It must be a schema of the
	// problem being solved; Solve refuses any other. It is only read.
	Warm *replication.Schema
	// OnSweep, when non-nil, observes each sweep's best OTC so far
	// (1-based sweep index).
	OnSweep func(sweep int, bestCost int64)
}

// withDefaults fills size-independent defaults; Sweeps is defaulted in Solve
// where the problem's shape is known (see DefaultSweeps).
func (c Config) withDefaults() Config {
	if c.CoolTo <= 0 || c.CoolTo >= 1 {
		c.CoolTo = 1e-3
	}
	return c
}

// DefaultSweeps is the adaptive annealing budget: the flat 60-sweep default
// is right for unit-test instances (M·N up to ~1k sites) but starves the
// chain at daemon scale, where the landscape has a thousand times as many
// sites yet each sweep still proposes only one flip per candidate pair. The
// budget therefore grows logarithmically with the site count — one extra
// 60-sweep block per doubling past 1024 sites — so an M=1000, N=3000
// instance gets a few hundred sweeps, not sixty, while small instances and
// every fixed-Sweeps caller are untouched.
func DefaultSweeps(m, n int) int {
	const base, pivot = 60, 1024
	sites := float64(m) * float64(n)
	if sites <= pivot {
		return base
	}
	return int(base * (1 + math.Log2(sites/pivot)))
}

// Result is the outcome of a run.
type Result struct {
	Schema *replication.Schema
	// Evaluations counts OTC delta evaluations (the dominant cost).
	Evaluations int64
	// Accepted counts accepted flips across the whole chain.
	Accepted int64
	// History records the best OTC per sweep (for convergence plots).
	History []int64
}

// move is one accepted flip; the journal of accepted moves replayed up to
// the best prefix rebuilds the best placement without per-improvement
// schema clones.
type move struct {
	object int32
	server int
	place  bool
}

// Solve runs the chain. ctx is checked before every sweep and every quench
// pass; on cancellation Solve returns ctx.Err() wrapped with the package
// name and the problem is left untouched (the chain works on a fresh
// schema).
func Solve(ctx context.Context, p *replication.Problem, cfg Config) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("glauber: nil problem")
	}
	cfg = cfg.withDefaults()
	if cfg.Sweeps <= 0 {
		cfg.Sweeps = DefaultSweeps(p.M, p.N)
	}
	if cfg.Warm != nil && cfg.Warm.Problem() != p {
		return nil, fmt.Errorf("glauber: warm schema was built on another problem")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("glauber: %w", err)
	}

	start := func() *replication.Schema {
		if cfg.Warm != nil {
			return cfg.Warm.Clone()
		}
		return p.NewSchema()
	}

	pairs := candidates.Build(p, false)
	res := &Result{}
	s := start()
	if len(pairs) == 0 {
		res.Schema = s
		return res, nil
	}

	// T0 is the mean |ΔOTC| of one flip against the starting placement: the
	// natural energy scale of the landscape, so acceptance probabilities are
	// shape-independent instead of hand-tuned per instance.
	var scale float64
	for _, pr := range pairs {
		var d int64
		if s.HasReplica(pr.Object, pr.Server) {
			d = s.DeltaIfRemoved(pr.Object, pr.Server)
		} else {
			d = s.DeltaIfPlaced(pr.Object, pr.Server)
		}
		res.Evaluations++
		scale += math.Abs(float64(d))
	}
	t0 := scale / float64(len(pairs))
	if t0 < 1 {
		t0 = 1
	}
	temperature := func(sweep int) float64 {
		if cfg.Sweeps == 1 {
			return t0
		}
		return t0 * math.Pow(cfg.CoolTo, float64(sweep)/float64(cfg.Sweeps-1))
	}

	rng := stats.NewRNG(cfg.Seed)
	var journal []move
	bestLen := 0
	bestCost := s.TotalCost()

	for sweep := 0; sweep < cfg.Sweeps; sweep++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("glauber: %w", err)
		}
		temp := temperature(sweep)
		for step := 0; step < len(pairs); step++ {
			pr := pairs[rng.Intn(len(pairs))]
			held := s.HasReplica(pr.Object, pr.Server)
			if held {
				if s.CanRemove(pr.Object, pr.Server) != nil {
					continue // the primary, never a chain site
				}
			} else if s.CanPlace(pr.Object, pr.Server) != nil {
				continue // capacity-blocked this instant
			}
			var d int64
			if held {
				d = s.DeltaIfRemoved(pr.Object, pr.Server)
			} else {
				d = s.DeltaIfPlaced(pr.Object, pr.Server)
			}
			res.Evaluations++
			if d > 0 && rng.Float64() >= math.Exp(-float64(d)/temp) {
				continue
			}
			if held {
				if _, err := s.RemoveReplica(pr.Object, pr.Server); err != nil {
					return nil, fmt.Errorf("glauber: remove (%d,%d): %w", pr.Object, pr.Server, err)
				}
			} else if _, err := s.PlaceReplica(pr.Object, pr.Server); err != nil {
				return nil, fmt.Errorf("glauber: place (%d,%d): %w", pr.Object, pr.Server, err)
			}
			journal = append(journal, move{object: pr.Object, server: pr.Server, place: !held})
			res.Accepted++
			if cost := s.TotalCost(); cost < bestCost {
				bestCost = cost
				bestLen = len(journal)
			}
		}
		res.History = append(res.History, bestCost)
		if cfg.OnSweep != nil {
			cfg.OnSweep(sweep+1, bestCost)
		}
	}

	// Rebuild the best placement by replaying the accepted-move prefix onto
	// a fresh start; every replayed move was feasible in this exact order.
	best := start()
	for _, mv := range journal[:bestLen] {
		var err error
		if mv.place {
			_, err = best.PlaceReplica(mv.object, mv.server)
		} else {
			_, err = best.RemoveReplica(mv.object, mv.server)
		}
		if err != nil {
			return nil, fmt.Errorf("glauber: replay (%d,%d): %w", mv.object, mv.server, err)
		}
	}

	// Zero-temperature quench: deterministic sorted-order passes applying
	// strictly improving flips until a fixpoint. Integer costs shrink by at
	// least 1 per flip, so this terminates; the result is a single-flip
	// local optimum regardless of where the chain wandered.
	for changed := true; changed; {
		changed = false
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("glauber: %w", err)
		}
		for _, pr := range pairs {
			if best.HasReplica(pr.Object, pr.Server) {
				if best.CanRemove(pr.Object, pr.Server) != nil {
					continue
				}
				res.Evaluations++
				if best.DeltaIfRemoved(pr.Object, pr.Server) < 0 {
					if _, err := best.RemoveReplica(pr.Object, pr.Server); err != nil {
						return nil, fmt.Errorf("glauber: quench remove (%d,%d): %w", pr.Object, pr.Server, err)
					}
					changed = true
				}
				continue
			}
			if best.CanPlace(pr.Object, pr.Server) != nil {
				continue
			}
			res.Evaluations++
			if best.DeltaIfPlaced(pr.Object, pr.Server) < 0 {
				if _, err := best.PlaceReplica(pr.Object, pr.Server); err != nil {
					return nil, fmt.Errorf("glauber: quench place (%d,%d): %w", pr.Object, pr.Server, err)
				}
				changed = true
			}
		}
	}

	res.Schema = best
	return res, nil
}
