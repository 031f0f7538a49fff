package online

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/replication"
)

// Compaction: Compact rebuilds a region's instance at M'×N' — the member
// servers, the objects they either own (primary) or demand, and the
// boundary servers that hold primaries of demanded objects — together with
// the ascending global ids of its servers, objects and members, which map
// local to global by index and global to local by binary search. Shard-side
// arena construction, kernel rounds and distance-oracle rows are then all
// sized to the region; placements, payments and deltas cross the RPC
// boundary through the mapping.
//
// Dropping the rest of the globe leaves the regional game unchanged: an
// object nobody in the region demands and no member owns contributes no
// cost term and no candidate, and a boundary server enters with capacity 0,
// which the materialized instance clamps to exactly its primary load — it
// can anchor read/write distances but never host a surplus replica.
// Regional placements therefore only ever use member servers, are disjoint
// across regions, and merge as a conflict-free union.
//
// Compacting with every server a member is the identity: Servers and Objects
// are the identity mappings and State is a deep copy of the input snapshot.
// That property is what keeps a 1-shard cluster bit-identical to the single
// daemon, and is pinned by the property tests and fuzzer in export_test.go.
//
// A region never changes after Compact. The coordinator forwards
// only the deltas it can express (RouteDeltasCompact) and re-assigns for the
// rest, so between assignments a shard's region differs from a fresh
// compaction of the mirror in two ways only: it keeps objects no member
// demands any more (a forwarded leave or a demand delta down to zero drops
// demand, never a mapped object), and it keeps boundary servers a fresh
// compaction would drop or carry as departed, each still clamped to its
// primary load. Neither changes a cold regional solve — the mappings stay
// monotone and every tie-break is by ascending id, so the game places the
// same replicas up to renaming the ids.

// CompactRegion is one regional sub-instance on the wire: the compacted
// snapshot, the dense index mapping back to global coordinates and the
// region's member servers. Servers[i'] is the global id of regional server
// i'; Objects[k'] likewise for objects. Members are the global ids of the
// servers the region owns, each one of its Servers. All three are strictly
// ascending, so a global id maps into the region by binary search.
//
// A CompactRegion is an immutable value: no method writes to it after
// Compact, so the coordinator and a shard share theirs across goroutines
// without a lock. A delta the mapping cannot express (add-object, a new
// server id, demand for an object outside the region) re-assigns instead
// of extending it.
type CompactRegion struct {
	State   *StateSnapshot `json:"state"`
	Servers []int32        `json:"servers"`
	Objects []int32        `json:"objects"`
	Members []int32        `json:"members"`
}

// Compact restricts the snapshot to a member subset, rebuilding it in
// region-local coordinates. Kept objects: every object whose primary is a
// member (retired ones included — their primary copy still occupies
// storage) plus every object a member demands. Kept servers: the members
// plus the boundary primaries of kept objects; boundary servers lose their
// declared capacity, so they can never host a surplus replica. Member ids
// outside the snapshot are ignored; the rest become the region's Members,
// ascending. Demand order (sorted by server, then object) is preserved
// because both mappings are monotone.
func (s *StateSnapshot) Compact(members []int32) *CompactRegion {
	m, n := len(s.Capacity), len(s.Sizes)
	member := make([]bool, m)
	for _, i := range members {
		if i >= 0 && int(i) < m {
			member[i] = true
		}
	}
	keepObj := make([]bool, n)
	for k, p := range s.Primary {
		if member[p] {
			keepObj[k] = true
		}
	}
	for _, d := range s.Demand {
		if member[d.Server] {
			keepObj[d.Object] = true
		}
	}
	keepSrv := make([]bool, m)
	copy(keepSrv, member)
	for k, kept := range keepObj {
		if kept {
			keepSrv[s.Primary[k]] = true
		}
	}

	r := &CompactRegion{State: &StateSnapshot{}}
	srvOf := make([]int32, m)
	for i := range srvOf {
		srvOf[i] = -1
	}
	for i, kept := range keepSrv {
		if !kept {
			continue
		}
		if member[i] {
			r.Members = append(r.Members, int32(i))
		}
		srvOf[i] = int32(len(r.Servers))
		r.Servers = append(r.Servers, int32(i))
		cap := s.Capacity[i]
		if !member[i] {
			cap = 0
		}
		r.State.Capacity = append(r.State.Capacity, cap)
		r.State.Active = append(r.State.Active, s.Active[i])
	}
	objOf := make([]int32, n)
	for k := range objOf {
		objOf[k] = -1
	}
	for k, kept := range keepObj {
		if !kept {
			continue
		}
		objOf[k] = int32(len(r.Objects))
		r.Objects = append(r.Objects, int32(k))
		r.State.Sizes = append(r.State.Sizes, s.Sizes[k])
		r.State.Primary = append(r.State.Primary, srvOf[s.Primary[k]])
		r.State.Retired = append(r.State.Retired, s.Retired[k])
	}
	for _, d := range s.Demand {
		if !member[d.Server] {
			continue
		}
		r.State.Demand = append(r.State.Demand, DemandEntry{
			Server: int(srvOf[d.Server]),
			Object: objOf[d.Object],
			Reads:  d.Reads,
			Writes: d.Writes,
		})
	}
	return r
}

// search finds a global id in the strictly ascending ids. An id outside
// the int32 range is in no region.
func search(ids []int32, global int) (int, bool) {
	if global < math.MinInt32 || global > math.MaxInt32 {
		return 0, false
	}
	return slices.BinarySearch(ids, int32(global))
}

// LocalServer maps a global server id into the region.
func (r *CompactRegion) LocalServer(global int) (int, bool) {
	return search(r.Servers, global)
}

// LocalObject maps a global object id into the region.
func (r *CompactRegion) LocalObject(global int32) (int32, bool) {
	l, ok := search(r.Objects, int(global))
	return int32(l), ok
}

// IsMember reports whether the region owns global server id.
func (r *CompactRegion) IsMember(global int) bool {
	_, ok := search(r.Members, global)
	return ok
}

// GlobalServer maps a regional server index back to its global id.
func (r *CompactRegion) GlobalServer(local int) (int, bool) {
	if local < 0 || local >= len(r.Servers) {
		return 0, false
	}
	return int(r.Servers[local]), true
}

// GlobalObject maps a regional object index back to its global id.
func (r *CompactRegion) GlobalObject(local int32) (int32, bool) {
	if local < 0 || int(local) >= len(r.Objects) {
		return 0, false
	}
	return r.Objects[local], true
}

// CarryToLocal translates a global placement matrix (rows per global object,
// replica lists of global server ids) into the region: one row per regional
// object, replicas restricted to mapped servers. Replicas on boundary
// servers survive translation and are then dropped by the carry-over's
// capacity check: a boundary server has no room beyond its primaries.
func (r *CompactRegion) CarryToLocal(matrix [][]int32) [][]int32 {
	if matrix == nil {
		return nil
	}
	out := make([][]int32, len(r.Objects))
	for l, g := range r.Objects {
		if int(g) >= len(matrix) || matrix[g] == nil {
			continue
		}
		row := make([]int32, 0, len(matrix[g]))
		for _, srv := range matrix[g] {
			if ls, ok := r.LocalServer(int(srv)); ok {
				row = append(row, int32(ls))
			}
		}
		out[l] = row
	}
	return out
}

// MatrixToGlobal translates a regional placement matrix back to global
// coordinates over n global objects. Objects outside the mapping get nil
// rows — the caller unions rows across regions — and server indices outside
// the region are dropped.
func (r *CompactRegion) MatrixToGlobal(local [][]int32, n int) [][]int32 {
	out := make([][]int32, n)
	for l, row := range local {
		if l >= len(r.Objects) || row == nil {
			continue
		}
		g := r.Objects[l]
		grow := make([]int32, 0, len(row))
		for _, ls := range row {
			if ls >= 0 && int(ls) < len(r.Servers) {
				grow = append(grow, r.Servers[ls])
			}
		}
		out[g] = grow
	}
	return out
}

// PaymentsToGlobal accumulates a regional payment vector into a global one.
func (r *CompactRegion) PaymentsToGlobal(local []int64, into []int64) {
	for l, v := range local {
		if v == 0 || l >= len(r.Servers) {
			continue
		}
		g := r.Servers[l]
		if int(g) < len(into) {
			into[g] += v
		}
	}
}

// TranslateDeltas converts a coordinator-forwarded batch from global to
// region-local coordinates. The mapping never changes after Compact, so every
// delta must name servers and objects the region already maps: demand needs
// its server and object, server-join and server-leave their server,
// remove-object its object. Anything else — add-object included — is an
// error; the coordinator re-assigns instead of forwarding it
// (RouteDeltasCompact).
func (r *CompactRegion) TranslateDeltas(ds []Delta) ([]Delta, error) {
	local := make([]Delta, 0, len(ds))
	for i, d := range ds {
		switch d.Kind {
		case KindDemand, KindServerJoin, KindServerLeave:
			ls, ok := r.LocalServer(d.Server)
			if !ok {
				return nil, fmt.Errorf("online: delta %d: server %d is not in the region", i, d.Server)
			}
			d.Server = ls
		case KindRemoveObject:
		default:
			return nil, fmt.Errorf("online: delta %d: %s deltas cannot be translated into a region", i, d.Kind)
		}
		if d.Kind == KindDemand || d.Kind == KindRemoveObject {
			lk, ok := r.LocalObject(d.Object)
			if !ok {
				return nil, fmt.Errorf("online: delta %d: object %d is not in the region", i, d.Object)
			}
			d.Object = lk
		}
		local = append(local, d)
	}
	return local, nil
}

// RouteDeltasCompact splits a global batch into per-region batches keyed by
// shard id under one rule: a delta is forwarded when its owner region's
// mapping already holds its server and, for demand, its object. The owner of
// a demand, server-join or server-leave delta is regionOf(server); a
// remove-object goes to every region that maps the object. Anything else
// returns ok false — add-object, a server no live region owns (a new id, or
// one whose shard missed the assignment), demand for an object outside its
// owner's mapping — and then no forwarding may happen at all: the caller
// re-assigns from fresh state, which already reflects the whole batch.
func RouteDeltasCompact(ds []Delta, regionOf func(server int) int, regions map[int]*CompactRegion) (perRegion map[int][]Delta, ok bool) {
	perRegion = make(map[int][]Delta, len(regions))
	for _, d := range ds {
		switch d.Kind {
		case KindRemoveObject:
			// Each region's batch keeps the input order whatever order the
			// regions are visited in.
			for r, reg := range regions {
				if _, ok := reg.LocalObject(d.Object); ok {
					perRegion[r] = append(perRegion[r], d)
				}
			}
			continue
		case KindDemand, KindServerJoin, KindServerLeave:
		default:
			return nil, false
		}
		r := regionOf(d.Server)
		reg := regions[r]
		if reg == nil {
			return nil, false
		}
		if _, ok := reg.LocalServer(d.Server); !ok {
			return nil, false
		}
		if d.Kind == KindDemand {
			if _, ok := reg.LocalObject(d.Object); !ok {
				return nil, false
			}
		}
		perRegion[r] = append(perRegion[r], d)
	}
	return perRegion, true
}

// NewFromCompact builds a regional controller from a compacted sub-instance:
// the snapshot is already in region coordinates, and the global cost oracle
// is restricted to the region's servers through the mapping. For a
// full-membership region SubsetCost returns the oracle unchanged, so the
// 1-shard cluster runs the very same code path as the single daemon.
//
// The region arrives over RPC, so it is checked before it is used: a
// mapping that does not match the state, ids that are not strictly
// ascending (binary search depends on it), a server outside the oracle or
// a member that is not one of the region's servers is refused with an
// error that wraps ErrInvalidState.
func NewFromCompact(cost replication.CostFn, region *CompactRegion, cfg Config) (*Controller, error) {
	if region == nil || region.State == nil {
		return nil, fmt.Errorf("%w: nil compact region", ErrInvalidState)
	}
	if len(region.Servers) != len(region.State.Capacity) || len(region.Objects) != len(region.State.Sizes) {
		return nil, fmt.Errorf("%w: compact region mapping %dx%d does not match state %dx%d", ErrInvalidState,
			len(region.Servers), len(region.Objects), len(region.State.Capacity), len(region.State.Sizes))
	}
	if !ascending(region.Servers) || !ascending(region.Objects) || !ascending(region.Members) {
		return nil, fmt.Errorf("%w: compact region ids are not strictly ascending", ErrInvalidState)
	}
	for _, g := range region.Servers {
		if g < 0 || int(g) >= cost.N() {
			return nil, fmt.Errorf("%w: compact region server %d outside cost oracle [0,%d)", ErrInvalidState, g, cost.N())
		}
	}
	for _, g := range region.Members {
		if _, ok := region.LocalServer(int(g)); !ok {
			return nil, fmt.Errorf("%w: compact region member %d is not one of its servers", ErrInvalidState, g)
		}
	}
	return NewFromState(replication.SubsetCost(cost, region.Servers), region.State, cfg)
}

// ascending reports whether ids is strictly ascending.
func ascending(ids []int32) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return false
		}
	}
	return true
}
