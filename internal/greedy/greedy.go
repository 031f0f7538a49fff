// Package greedy implements the centralized greedy baseline of the paper's
// comparison (Qiu, Padmanabhan and Voelker, INFOCOM 2001, [26]): repeatedly
// place the replica with the best benefit per unit of storage until nothing
// beneficial fits.
//
// The engine is the faithful one from [26]: every iteration rescans all
// remaining candidates and places the best (candidates that can never
// recover — non-positive benefit, or too big for the shrinking residual —
// are dropped permanently).
package greedy

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/candidates"
	"repro/internal/pool"
	"repro/internal/replication"
)

// Config tunes the baseline.
type Config struct {
	// ByDensity keys selection by benefit/size (the knapsack-style rule of
	// [26], default via DefaultConfig). When false, raw benefit is used —
	// which makes the allocation order identical to AGT-RAM's and serves
	// as the "centralized scan" engine ablation.
	ByDensity bool
	// Workers bounds the rescan fan-out; <= 0 selects GOMAXPROCS.
	Workers int
	// OnPlace, when non-nil, observes every placement as it commits:
	// the object, the receiving server, and the benefit that won.
	OnPlace func(object int32, server int, benefit int64)
}

// DefaultConfig is the paper's greedy: benefit per unit of storage.
func DefaultConfig() Config { return Config{ByDensity: true} }

// Result is the outcome of a run.
type Result struct {
	Schema *replication.Schema
	Placed int
	// Evaluations counts benefit computations, the dominant cost term.
	Evaluations int64
}

// Solve runs the greedy baseline. ctx is checked once per pass; on
// cancellation Solve returns ctx.Err() wrapped with the package name.
func Solve(ctx context.Context, p *replication.Problem, cfg Config) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("greedy: nil problem")
	}
	schema := p.NewSchema()
	res := &Result{Schema: schema}
	if err := solve(ctx, schema, candidates.Build(p, true), cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

func keyOf(cfg Config, benefit, size int64) float64 {
	if cfg.ByDensity {
		return float64(benefit) / float64(size)
	}
	return float64(benefit)
}

// solve is the textbook loop of [26]: full rescan, place best, repeat.
// Each candidate carries cached pricing state (its nearest-replica cost and
// its constant update-traffic term), refreshed lazily when its object was
// the last one placed, so an evaluation is O(1) just as for the AGT-RAM
// agents; both terms come from the problem's tables (the c(i, P_k) cell
// and the placed object's co-demander block), not from the distance
// oracle. The rescan fans out over a worker pool; each chunk compacts
// survivors in place and reports its local best, then a serial reduction
// picks the global winner (first occurrence on key ties, matching the
// sequential scan order).
func solve(ctx context.Context, schema *replication.Schema, pairs []candidates.Pair, cfg Config, res *Result) error {
	nWorkers := cfg.Workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	workers := pool.New(nWorkers)
	defer workers.Close()

	p := schema.Problem()
	live := make([]cand, 0, len(pairs))
	for _, pr := range pairs {
		r, w := p.Work.ReadsWrites(pr.Server, pr.Object)
		cPk := p.PrimaryCost(pr.Cell)
		live = append(live, cand{
			server:  pr.Server,
			object:  pr.Object,
			size:    pr.Size,
			reads:   r,
			nnCost:  cPk,
			updCost: (p.Work.TotalWrites[pr.Object] - w) * pr.Size * int64(cPk),
		})
	}

	type chunkBest struct {
		lo, hi int // surviving range after in-place compaction
		idx    int // index of local best within [lo, hi), or -1
		key    float64
		evals  int64
	}
	results := make([]chunkBest, nWorkers)
	lastObj, lastServer := int32(-1), -1
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("greedy: %w", err)
		}
		nChunks := 0
		chunk := (len(live) + nWorkers - 1) / nWorkers
		if chunk > 0 {
			nChunks = (len(live) + chunk - 1) / chunk
		}
		workers.Batch(len(live), func(lo, hi int) {
			ci := lo / chunk
			cb := chunkBest{lo: lo, idx: -1}
			out := lo
			for j := lo; j < hi; j++ {
				c := live[j]
				if c.object == lastObj {
					// Refresh the nearest-replica cost against the replica
					// placed last round (all older placements were folded in
					// the round after they happened), reading the distance
					// the placement itself read.
					if nc := p.PlaceCost(lastObj, lastServer, c.server); nc < c.nnCost {
						c.nnCost = nc
					}
				}
				if schema.Residual(c.server) < c.size {
					continue // permanent prune
				}
				b := c.reads*c.size*int64(c.nnCost) - c.updCost
				cb.evals++
				if b <= 0 {
					continue // permanent prune: benefits only shrink
				}
				live[out] = c
				if key := keyOf(cfg, b, c.size); cb.idx == -1 || key > cb.key {
					cb.idx, cb.key = out, key
				}
				out++
			}
			cb.hi = out
			results[ci] = cb
		})
		// Serial reduction: stitch surviving ranges, track the global best.
		bestIdx := -1
		var bestKey float64
		out := 0
		for c := 0; c < nChunks; c++ {
			cb := results[c]
			res.Evaluations += cb.evals
			for j := cb.lo; j < cb.hi; j++ {
				live[out] = live[j]
				if j == cb.idx {
					if bestIdx == -1 || cb.key > bestKey {
						bestIdx, bestKey = out, cb.key
					}
				}
				out++
			}
		}
		live = live[:out]
		if bestIdx == -1 {
			return nil
		}
		c := live[bestIdx]
		if _, err := schema.PlaceReplica(c.object, c.server); err != nil {
			return fmt.Errorf("greedy: placing (%d on %d): %w", c.object, c.server, err)
		}
		res.Placed++
		if cfg.OnPlace != nil {
			// live[bestIdx] carries this pass's refreshed pricing state, so
			// the O(1) benefit formula reproduces the evaluated value.
			cfg.OnPlace(c.object, c.server, c.reads*c.size*int64(c.nnCost)-c.updCost)
		}
		lastObj, lastServer = c.object, c.server
		live = append(live[:bestIdx], live[bestIdx+1:]...)
	}
}

// cand is one candidate with cached pricing state for O(1) evaluation.
type cand struct {
	server  int
	object  int32
	size    int64
	reads   int64
	nnCost  int32
	updCost int64
}
