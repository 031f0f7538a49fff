package online

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/replication"
)

// Regions: a region is the mirror's state masked to its member servers, in
// the mirror's own ids. Mask keeps every server and object; a non-member
// keeps its activity flag and the primaries it holds but declares capacity
// 0 and loses its demand. The materialized instance clamps a non-member to
// exactly its primary load, so it can anchor read/write distances but never
// host a surplus replica, and it contributes no cost term. Regional
// placements therefore only ever use member servers, are disjoint across
// regions, and merge as a conflict-free union; placements, payments, border
// ads and deltas cross the RPC boundary in global ids, untranslated, and a
// shard reads the shared cost oracle directly.
//
// Masking with every server a member is the identity: State is a deep copy
// of the input snapshot. That property is what keeps a 1-shard cluster
// bit-identical to the single daemon, and is pinned by the property tests
// and fuzzer in export_test.go.
//
// A region never changes after Mask. The coordinator forwards a delta to
// the region that owns its server, and a remove-object to every region
// (RouteDeltas); it re-assigns only for what no live region owns. Between
// assignments a shard's region therefore differs from a fresh mask of the
// mirror only in the activity flags of other regions' servers, which the
// materialized instance does not see: an active non-member and a departed
// one both get exactly their primary load and no demand.

// Region is one regional instance on the wire: the mirror's state masked to
// the region's members, and the members themselves, strictly ascending, so
// a server's membership is one binary search.
//
// A Region is an immutable value: no method writes to it after Mask, so the
// coordinator and a shard share theirs across goroutines without a lock.
type Region struct {
	State   *StateSnapshot `json:"state"`
	Members []int32        `json:"members"`
}

// Mask restricts the snapshot to a member subset, keeping every id: members
// keep their declared capacity and demand, every other server declares
// capacity 0 and loses its demand, and sizes, primaries, retirements and
// activity flags are kept as they are. Member ids outside the snapshot are
// ignored; the rest become the region's Members, ascending. Demand keeps
// its (server, object) order.
func (s *StateSnapshot) Mask(members []int32) *Region {
	m := len(s.Capacity)
	member := make([]bool, m)
	for _, i := range members {
		if i >= 0 && int(i) < m {
			member[i] = true
		}
	}
	st := &StateSnapshot{
		Capacity: make([]int64, m),
		Active:   append([]bool(nil), s.Active...),
		Sizes:    append([]int64(nil), s.Sizes...),
		Primary:  append([]int32(nil), s.Primary...),
		Retired:  append([]bool(nil), s.Retired...),
	}
	r := &Region{State: st}
	for i, in := range member {
		if in {
			st.Capacity[i] = s.Capacity[i]
			r.Members = append(r.Members, int32(i))
		}
	}
	for _, d := range s.Demand {
		if member[d.Server] {
			st.Demand = append(st.Demand, d)
		}
	}
	return r
}

// IsMember reports whether the region owns server id. An id outside the
// int32 range is in no region.
func (r *Region) IsMember(server int) bool {
	if server < math.MinInt32 || server > math.MaxInt32 {
		return false
	}
	_, ok := slices.BinarySearch(r.Members, int32(server))
	return ok
}

// Carry restricts a placement matrix to the region: every row keeps only
// the replicas on members, so a shard carries its own share of the merged
// placement. The primary copy is implicit in a carried schema, so dropping
// a non-member's primary from a row loses nothing.
func (r *Region) Carry(matrix [][]int32) [][]int32 {
	out := make([][]int32, len(matrix))
	for k, row := range matrix {
		for _, s := range row {
			if r.IsMember(int(s)) {
				out[k] = append(out[k], s)
			}
		}
	}
	return out
}

// RouteDeltas splits a global batch into per-region batches keyed by shard
// id under one rule: demand, server-join and server-leave go to the region
// that owns the server (regionOf), and a remove-object goes to every live
// region (the keys of regions set true; region ids are never negative).
// Anything else returns ok false — add-object, or a server no live region
// owns (a new id, or one whose shard missed the assignment) — and then no
// forwarding may happen at all: the caller re-assigns from fresh state,
// which already reflects the whole batch. Each region's batch keeps the
// input order, and a region that receives nothing has no key.
//
// A forwarded batch can hold a hundred thousand deltas, so the split does
// no map operation per delta: one pass counts each region's share, and a
// second fills batches of exactly that size, cut from one backing array.
func RouteDeltas(ds []Delta, regionOf func(server int) int, regions map[int]bool) (perRegion map[int][]Delta, ok bool) {
	// live holds the live region ids ascending; at[r] is r's position in it,
	// -1 when region r is not live.
	var live []int
	for r, on := range regions {
		if on && r >= 0 {
			live = append(live, r)
		}
	}
	slices.Sort(live)
	var at []int
	if len(live) > 0 {
		at = make([]int, live[len(live)-1]+1)
		for r := range at {
			at[r] = -1
		}
		for j, r := range live {
			at[r] = j
		}
	}
	owner := func(server int) int {
		if r := regionOf(server); r >= 0 && r < len(at) {
			return at[r]
		}
		return -1
	}

	counts := make([]int, len(live))
	removes := 0
	for _, d := range ds {
		switch d.Kind {
		case KindRemoveObject:
			removes++
			continue
		case KindDemand, KindServerJoin, KindServerLeave:
		default:
			return nil, false
		}
		j := owner(d.Server)
		if j < 0 {
			return nil, false
		}
		counts[j]++
	}
	backing := make([]Delta, len(ds)-removes+removes*len(live))
	batches := make([][]Delta, len(live))
	for j, c := range counts {
		batches[j] = backing[: 0 : c+removes]
		backing = backing[c+removes:]
	}
	for _, d := range ds {
		if d.Kind == KindRemoveObject {
			for j := range batches {
				batches[j] = append(batches[j], d)
			}
			continue
		}
		j := owner(d.Server)
		batches[j] = append(batches[j], d)
	}
	perRegion = make(map[int][]Delta, len(live))
	for j, batch := range batches {
		if len(batch) > 0 {
			perRegion[live[j]] = batch
		}
	}
	return perRegion, true
}

// NewFromRegion builds a regional controller from a masked region over the
// global cost oracle. A full-membership region's state is the mirror's
// own, so the 1-shard cluster runs the very same code path as the single
// daemon.
//
// The region arrives over RPC, so it is checked before it is used: members
// that are not strictly ascending (IsMember's binary search depends on it)
// or that are not servers of the state are refused with an error that wraps
// ErrInvalidState, and NewFromState validates the state.
func NewFromRegion(cost replication.CostFn, region *Region, cfg Config) (*Controller, error) {
	if region == nil || region.State == nil {
		return nil, fmt.Errorf("%w: nil region", ErrInvalidState)
	}
	for i, g := range region.Members {
		if i > 0 && region.Members[i-1] >= g {
			return nil, fmt.Errorf("%w: region members are not strictly ascending", ErrInvalidState)
		}
		if g < 0 || int(g) >= len(region.State.Capacity) {
			return nil, fmt.Errorf("%w: region member %d is not a server of its state [0,%d)", ErrInvalidState, g, len(region.State.Capacity))
		}
	}
	return NewFromState(cost, region.State, cfg)
}
