// Package hierarchy implements the paper's future-work extension
// (Section 7): regional, self-governed mechanisms. The flat AGT-RAM has a
// single central body; here the servers are partitioned into geographic
// regions (by communication-cost proximity), each region runs its own
// sealed-bid game over its members, and a thin top-level mechanism
// arbitrates between the regional winners.
//
// Two operating modes realize the two designs sketched in the paper:
//
//   - Hierarchical: each epoch, every regional mechanism forwards its best
//     regional bid; the top level picks the single global best. The
//     allocation sequence is provably identical to flat AGT-RAM (the
//     maximum of regional maxima is the global maximum) while the top
//     level sees R bids per epoch instead of M.
//
//   - Autonomous: there is no top level; every region places its own
//     winner each epoch. Decisions are fully regional — the mode the
//     system degrades to when the central body fails — at some cost in
//     solution quality under capacity pressure.
//
// Failure injection covers both sketches: TopFails switches a hierarchical
// system to autonomous operation mid-protocol, and FailedRegions silences
// whole regions ("less vulnerable to the failures of a single mechanism").
package hierarchy

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/candidates"
	"repro/internal/mechanism"
	"repro/internal/replication"
)

// Mode selects the coordination scheme.
type Mode int

const (
	// Hierarchical keeps a thin top-level arbiter over the regional games.
	Hierarchical Mode = iota
	// Autonomous lets every region allocate independently.
	Autonomous
)

// String names the mode.
func (m Mode) String() string {
	if m == Autonomous {
		return "autonomous"
	}
	return "hierarchical"
}

// Config tunes the regional mechanism.
type Config struct {
	// Regions is the number of regions to partition the servers into
	// (default 4, clamped to the server count).
	Regions int
	// Mode selects hierarchical or autonomous coordination.
	Mode Mode
	// TopFailsAfter, when > 0, fails the top-level mechanism after that
	// many epochs: the system continues autonomously (hierarchical mode
	// only).
	TopFailsAfter int
	// FailedRegions lists regions whose mechanism is down from the start;
	// their servers never replicate anything.
	FailedRegions []int
}

// Result is the outcome of a run.
type Result struct {
	Schema *replication.Schema
	// Regions maps each region to its member servers.
	Regions [][]int32
	// Epochs counts protocol epochs.
	Epochs int
	// Placed counts replicas placed.
	Placed int
	// TopDecisions counts binary decisions taken by the top level.
	TopDecisions int
	// RegionalDecisions counts decisions taken regionally (autonomous
	// placements).
	RegionalDecisions int
	// DegradedAtEpoch records when the top level failed (-1 if never).
	DegradedAtEpoch int
}

// Partition splits the servers into k regions by communication-cost
// proximity: greedy farthest-point seeding, then nearest-seed assignment.
// Deterministic for a given cost matrix.
func Partition(p *replication.Problem, k int) [][]int32 {
	if k < 1 {
		k = 1
	}
	if k > p.M {
		k = p.M
	}
	seeds := farthestSeeds(p, k)
	regions := make([][]int32, k)
	for i := 0; i < p.M; i++ {
		best, bestD := 0, int64(p.Cost.At(i, seeds[0]))
		for r := 1; r < k; r++ {
			if d := int64(p.Cost.At(i, seeds[r])); d < bestD {
				best, bestD = r, d
			}
		}
		regions[best] = append(regions[best], int32(i))
	}
	return regions
}

// PartitionBalanced splits the servers into k regions of near-equal size
// (at most ceil(M/k) members each). Seeding is the same farthest-point
// traversal as Partition; assignment is by proximity under the capacity
// cap, processing servers in decreasing order of how much the choice
// matters to them (the cost gap between their nearest and second-nearest
// seed), so the servers squeezed out of a full region are the ones that
// care least. Deterministic for a given cost matrix.
//
// On cost metrics with a dense core, nearest-seed assignment piles most of
// the servers onto the core seed (the other seeds are peripheral
// outliers); the cluster coordinator partitions with the balanced variant
// so no region's game grows into the whole globe: a regional solve costs
// its members' share of the demand only when the partition does its part.
func PartitionBalanced(p *replication.Problem, k int) [][]int32 {
	if k < 1 {
		k = 1
	}
	if k > p.M {
		k = p.M
	}
	seeds := farthestSeeds(p, k)
	dist := make([]int64, p.M*k)
	order := make([]int32, p.M)
	gap := make([]int64, p.M)
	for i := 0; i < p.M; i++ {
		best, second := int64(1)<<62, int64(1)<<62
		for r, s := range seeds {
			d := int64(p.Cost.At(i, s))
			dist[i*k+r] = d
			if d < best {
				best, second = d, best
			} else if d < second {
				second = d
			}
		}
		order[i] = int32(i)
		gap[i] = second - best
	}
	sort.SliceStable(order, func(a, b int) bool { return gap[order[a]] > gap[order[b]] })
	cap_ := (p.M + k - 1) / k
	regions := make([][]int32, k)
	for _, srv := range order {
		best, bestD := -1, int64(1)<<62
		for r := 0; r < k; r++ {
			if len(regions[r]) >= cap_ {
				continue
			}
			if d := dist[int(srv)*k+r]; d < bestD {
				best, bestD = r, d
			}
		}
		regions[best] = append(regions[best], srv)
	}
	for _, members := range regions {
		sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
	}
	return regions
}

// farthestSeeds picks k seed servers by greedy farthest-point traversal
// from server 0, returned sorted.
func farthestSeeds(p *replication.Problem, k int) []int {
	seeds := make([]int, 0, k)
	seeds = append(seeds, 0)
	minDist := make([]int64, p.M)
	for i := range minDist {
		minDist[i] = int64(p.Cost.At(i, 0))
	}
	for len(seeds) < k {
		far, farD := -1, int64(-1)
		for i := 0; i < p.M; i++ {
			if minDist[i] > farD {
				far, farD = i, minDist[i]
			}
		}
		seeds = append(seeds, far)
		for i := 0; i < p.M; i++ {
			if d := int64(p.Cost.At(i, far)); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	sort.Ints(seeds)
	return seeds
}

// Solve runs the regional mechanism to completion. ctx is checked at the
// top of every epoch; on cancellation Solve returns ctx.Err() wrapped with
// the package name.
func Solve(ctx context.Context, p *replication.Problem, cfg Config) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("hierarchy: nil problem")
	}
	if cfg.Regions == 0 {
		cfg.Regions = 4
	}
	if cfg.Regions < 0 {
		return nil, fmt.Errorf("hierarchy: negative region count %d", cfg.Regions)
	}
	regions := Partition(p, cfg.Regions)
	for _, r := range cfg.FailedRegions {
		if r < 0 || r >= len(regions) {
			return nil, fmt.Errorf("hierarchy: failed region %d out of range [0,%d)", r, len(regions))
		}
	}

	schema := p.NewSchema()
	res := &Result{Schema: schema, Regions: regions, DegradedAtEpoch: -1}

	failed := make(map[int]bool, len(cfg.FailedRegions))
	for _, r := range cfg.FailedRegions {
		failed[r] = true
	}

	// Regional agent pools (only servers of live regions participate).
	regionOf := make([]int, p.M)
	for r, members := range regions {
		for _, i := range members {
			regionOf[i] = r
		}
	}
	byRegion := make([][]*candidates.Agent, len(regions))
	for _, a := range candidates.BuildAgents(p) {
		r := regionOf[a.ID]
		if failed[r] {
			continue
		}
		byRegion[r] = append(byRegion[r], a)
	}

	hierarchical := cfg.Mode == Hierarchical
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("hierarchy: %w", err)
		}
		if hierarchical && cfg.TopFailsAfter > 0 && res.Epochs >= cfg.TopFailsAfter && res.DegradedAtEpoch < 0 {
			// The central body dies; the regions keep going on their own.
			hierarchical = false
			res.DegradedAtEpoch = res.Epochs
		}
		// Each regional mechanism runs one sealed-bid round over its agents.
		// No Result field records a payment, so only the winners matter.
		winners := make([]mechanism.Bid, 0, len(regions))
		for r, agents := range byRegion {
			bids := make([]mechanism.Bid, 0, len(agents))
			live := agents[:0]
			for _, a := range agents {
				obj, val, ok := a.Best()
				if !ok {
					continue
				}
				live = append(live, a)
				bids = append(bids, mechanism.Bid{Agent: a.ID, Item: obj, Value: val})
			}
			byRegion[r] = live
			if round, ok := mechanism.RunRound(bids, mechanism.SecondPrice); ok {
				winners = append(winners, round.Winner)
			}
		}
		if len(winners) == 0 {
			break
		}
		res.Epochs++

		toPlace := winners
		if hierarchical {
			// Top level: one binary decision over the regional winners.
			final, _ := mechanism.RunRound(winners, mechanism.SecondPrice)
			toPlace = []mechanism.Bid{final.Winner}
			res.TopDecisions++
		} else {
			res.RegionalDecisions += len(winners)
		}

		for _, win := range toPlace {
			if err := schema.CanPlace(win.Item, win.Agent); err != nil {
				// In autonomous mode two regions can race for the last slot
				// of an object's feasibility only via capacity on their own
				// servers, which they own exclusively — so this indicates
				// corruption.
				return nil, fmt.Errorf("hierarchy: winner infeasible: %w", err)
			}
			if _, err := schema.PlaceReplica(win.Item, win.Agent); err != nil {
				return nil, err
			}
			res.Placed++
			// Broadcast to every live agent in every region.
			for _, agents := range byRegion {
				for _, a := range agents {
					a.Apply(p, win.Item, win.Agent)
				}
			}
		}
	}
	return res, nil
}
