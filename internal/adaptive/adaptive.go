// Package adaptive implements the protocol view of AGT-RAM stated in the
// paper's conclusions: "a protocol for automatic replication and migration
// of objects in response to demand changes". The system runs in epochs; at
// every epoch boundary the demand shifts (object popularity drifts while
// the catalogue, primaries, topology and capacities stay fixed), and the
// mechanism reacts with migrations:
//
//  1. carry the previous epoch's replicas forward,
//  2. de-allocate replicas whose removal now *reduces* OTC (reads moved
//     away; keeping the copy only costs update broadcasts), in one sweep
//     with the cluster exchange's sign test, replication.Served: one
//     sweep reaches the fixpoint, because a removal never makes another
//     copy's removal pay (see dropHarmful),
//  3. resume sealed-bid rounds for new placements until no agent benefits
//     (agtram.SolveIncrementalFrom, warm from the pruned placement).
//
// Each epoch reports how many replicas were kept, dropped and added, and
// the savings achieved against that epoch's primary-only baseline — so the
// value of migrating (versus freezing the initial placement) is measurable.
package adaptive

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/agtram"
	"repro/internal/replication"
	"repro/internal/workload"
)

// Config tunes the adaptive run.
type Config struct {
	// FreezePlacement disables migration: the first epoch's placement is
	// carried forward untouched. This is the control the adaptive protocol
	// is measured against.
	FreezePlacement bool
}

// EpochStats reports one epoch.
type EpochStats struct {
	Epoch     int
	Kept      int     // replicas carried over and retained
	Dropped   int     // replicas de-allocated at the boundary
	Added     int     // replicas placed by the mechanism this epoch
	Savings   float64 // OTC savings vs this epoch's primary-only baseline
	Cost      int64
	BaseCost  int64
	Migration int // Dropped + Added: the migration traffic proxy
}

// Result is the outcome of an adaptive run.
type Result struct {
	Epochs []EpochStats
	// Final is the last epoch's schema.
	Final *replication.Schema
}

// MeanSavings averages the per-epoch savings.
func (r *Result) MeanSavings() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range r.Epochs {
		sum += e.Savings
	}
	return sum / float64(len(r.Epochs))
}

// Run executes the adaptive protocol over a sequence of per-epoch
// workloads. All workloads must describe the same system: identical M, N,
// object sizes and primary assignments. The cost matrix and capacities are
// shared across epochs. ctx is checked at every epoch boundary and every
// resumed mechanism round; on cancellation Run returns ctx.Err() wrapped
// with the package name.
func Run(ctx context.Context, cost replication.CostFn, epochs []*workload.Workload, capacity []int64, cfg Config) (*Result, error) {
	if len(epochs) == 0 {
		return nil, fmt.Errorf("adaptive: no epochs")
	}
	base := epochs[0]
	for e, w := range epochs[1:] {
		if err := sameSystem(base, w); err != nil {
			return nil, fmt.Errorf("adaptive: epoch %d: %w", e+1, err)
		}
	}

	res := &Result{}
	for e, w := range epochs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("adaptive: %w", err)
		}
		prob, err := replication.NewProblem(cost, w, capacity)
		if err != nil {
			return nil, fmt.Errorf("adaptive: epoch %d: %w", e, err)
		}

		// 1. Carry the previous epoch's placement forward. Capacities and
		// sizes are epoch-invariant, so every carried replica fits.
		var prev [][]int32
		if res.Final != nil {
			prev = res.Final.Matrix()
		}
		schema, dropped := prob.CarryOver(prev)
		if dropped > 0 {
			return nil, fmt.Errorf("adaptive: epoch %d: %d carried replicas no longer fit", e, dropped)
		}
		stats := EpochStats{Epoch: e, Kept: schema.Placed()}

		if !cfg.FreezePlacement || e == 0 {
			// 2. Migration out: drop replicas whose removal lowers OTC.
			stats.Dropped = dropHarmful(schema)
			stats.Kept -= stats.Dropped

			// 3. Migration in: resume the sealed-bid mechanism.
			sol, err := agtram.SolveIncrementalFrom(ctx, schema, agtram.Config{})
			if err != nil {
				return nil, fmt.Errorf("adaptive: epoch %d: %w", e, err)
			}
			schema = sol.Schema
			stats.Added = sol.Rounds
		}

		stats.Cost = schema.TotalCost()
		stats.BaseCost = schema.BaseCost()
		stats.Savings = schema.Savings()
		stats.Migration = stats.Dropped + stats.Added
		res.Epochs = append(res.Epochs, stats)
		res.Final = schema
	}
	return res, nil
}

// dropHarmful removes every surplus replica whose removal lowers the OTC,
// in one sweep: object by object, each object's copies in server order,
// each tested with replication.Served, the sign test the cluster's border
// exchange drops copies with. One sweep reaches the fixpoint. A removal
// reads and writes only its own object's state, and removing a copy of
// object k only moves the cells it served onto k's other copies. Each
// remaining copy keeps its write-side saving and still serves every cell
// it served, each of which now falls back to a copy no nearer than before;
// so its removal loses at least as much on the read side, and a copy kept
// earlier in the sweep stays kept.
func dropHarmful(s *replication.Schema) int {
	p := s.Problem()
	var served replication.Served
	dropped := 0
	for k := range int32(p.N) {
		served.Reset(s, k)
		for _, m := range slices.Clone(s.Replicas(k)) {
			if m == p.Work.Primary[k] || !served.RemovalSaves(int(m)) {
				continue
			}
			if _, err := s.RemoveReplica(k, int(m)); err == nil {
				dropped++
				served.Reset(s, k) // m's cells moved to other replicas
			}
		}
	}
	return dropped
}

// sameSystem verifies two workloads describe the same fixed system.
func sameSystem(a, b *workload.Workload) error {
	if a.M != b.M || a.N != b.N {
		return fmt.Errorf("system shape changed: %dx%d vs %dx%d", a.M, a.N, b.M, b.N)
	}
	for k := 0; k < a.N; k++ {
		if a.ObjectSize[k] != b.ObjectSize[k] {
			return fmt.Errorf("object %d changed size", k)
		}
		if a.Primary[k] != b.Primary[k] {
			return fmt.Errorf("object %d changed primary", k)
		}
	}
	return nil
}

// GenerateEpochs builds a demand-drift sequence: one synthetic workload per
// epoch with a fixed catalogue (sizes, primaries) and freshly drawn demand.
func GenerateEpochs(base workload.SyntheticConfig, epochs int) ([]*workload.Workload, error) {
	if epochs <= 0 {
		return nil, fmt.Errorf("adaptive: epochs must be positive, got %d", epochs)
	}
	out := make([]*workload.Workload, epochs)
	for e := 0; e < epochs; e++ {
		cfg := base
		if e > 0 {
			cfg.DemandSeed = base.Seed + int64(e)*1_000_003
		}
		w, err := workload.Synthetic(cfg)
		if err != nil {
			return nil, err
		}
		out[e] = w
	}
	return out, nil
}
