package replication

import (
	"runtime"
	"sync/atomic"

	"repro/internal/pool"
)

// CarryOver rebuilds a placement from per-object replica sets (the form
// Schema.Matrix returns) against p, skipping any replica that is no longer
// feasible — the server's capacity shrank, the server left the system, or
// the object's primary moved. Objects beyond len(matrix) — new arrivals —
// stay primary-only. It returns the schema and the number of replicas that
// had to be dropped.
//
// It is the one way a replica list becomes a schema: the online
// controller's delta batches, a shard's assign carry, the cluster merge,
// Restore, the adaptive epochs and the bench's re-costing all build theirs
// with it, and the last three refuse a carry that drops anything.
//
// The result is the schema that calling PlaceReplica once per replica, in
// (object, row) order, would build, in two passes. Feasibility is the only
// part that couples objects, through the servers' residuals, so the first
// pass is serial in that order: it applies exactly PlaceReplica's checks
// and charges each accepted replica's size to its server. The second pass
// does the rest of each placement — the write side, the demander walk and
// the replica list — which reads and writes only its own object's state,
// so it runs in parallel over objects, each object in row order so the
// nearest-replica ties resolve as the serial placements would.
func (p *Problem) CarryOver(matrix [][]int32) (*Schema, int) {
	s := p.NewSchema()
	rows := min(len(matrix), p.N)
	entries := 0
	for _, row := range matrix[:rows] {
		entries += len(row)
	}
	// accepted[start[k]:start[k+1]] are object k's accepted replicas in row
	// order; holds[m] == k+1 once m holds a copy of object k.
	accepted := make([]int32, 0, entries)
	start := make([]int32, rows+1)
	holds := make([]int32, p.M)
	dropped := 0
	for k, row := range matrix[:rows] {
		size, primary := p.Work.ObjectSize[k], p.Work.Primary[k]
		for _, m := range row {
			switch {
			case m == primary:
				// The primary copy is implicit in NewSchema.
			case m < 0 || int(m) >= p.M || holds[m] == int32(k+1) || s.residual[m] < size:
				dropped++
			default:
				holds[m] = int32(k + 1)
				s.residual[m] -= size
				accepted = append(accepted, m)
			}
		}
		start[k+1] = int32(len(accepted))
	}

	var cost atomic.Int64
	pl := pool.New(runtime.GOMAXPROCS(0))
	defer pl.Close()
	pl.BatchGuided(rows, 0, func(lo, hi int) {
		var delta int64
		for k := lo; k < hi; k++ {
			for _, m := range accepted[start[k]:start[k+1]] {
				delta += s.placeObject(int32(k), int(m))
			}
		}
		cost.Add(delta)
	})
	s.cost += cost.Load()
	s.placed += len(accepted)
	return s, dropped
}
