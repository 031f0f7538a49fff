package replication

// Where a placement reads its distances. Placing object k on server m
// changes only the nearest-replica costs of k's demanders (§4's OMAX
// broadcast), so the placement reads c(P_k, m) and c(x, m) for each
// demander x of k, and nothing else. When m demands k itself, every one of
// those distances lies between two co-demanders of k. NewProblem therefore
// prices a co-demander block for each object k whose demander count d_k
// satisfies d_k² ≤ M: the d_k×d_k matrix of c(x, y) over DemandersOf(k).
// The guard keeps a block no larger than the one oracle row a placement of
// k would otherwise fetch, and the whole table below Cells()·√M entries.
//
// PlaceCosts and PlaceCost are the one place that picks a placement's
// source, in this order:
//
//  1. the block, when k is priced and m demands k;
//  2. otherwise the oracle's row c(m, ·), when the oracle offers rows;
//  3. otherwise At.
//
// Every block entry is the value the oracle-backed paths read: row m of the
// oracle indexed by the reader under a RowCostFn, At(reader, m) otherwise.
// So a placement reads bit-identical distances whichever source answers,
// and a lazy oracle is asked for a row only by placements of unpriced
// objects and placements on servers without demand for the object
// (carry-over, restore, the cluster's boundary exchange).

// priced reports whether an object with d demanders gets a co-demander
// block.
func (p *Problem) priced(d int) bool { return d*d <= p.M }

// coBlock returns object k's co-demander block, row-major by winner: row a
// holds c(x_b, x_a) for every demander x_b, in DemandersOf(k) order. It is
// nil when k is unpriced.
func (p *Problem) coBlock(k int32) []int32 {
	lo, hi := p.coStart[k], p.coStart[k+1]
	if lo == hi {
		return nil
	}
	return p.coCost[lo:hi:hi]
}

// fillBlockRow writes row a of priced object k's block, the row of server
// m, reading row, the oracle row c(m, ·) (nil when the oracle has no rows).
func (p *Problem) fillBlockRow(blk []int32, k int32, a, m int, row []int32) {
	refs := p.byObject[k]
	d := len(refs)
	dst := blk[a*d : (a+1)*d]
	if row != nil {
		for b, ref := range refs {
			dst[b] = row[ref.Server]
		}
		return
	}
	for b, ref := range refs {
		dst[b] = p.Cost.At(int(ref.Server), m)
	}
}

// demanderPos returns server m's position in DemandersOf(k), which is
// sorted by server, and whether m demands k at all.
func (p *Problem) demanderPos(k int32, m int) (int, bool) {
	refs := p.byObject[k]
	lo, hi := 0, len(refs)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if int(refs[h].Server) < m {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(refs) && int(refs[lo].Server) == m
}

// costColumn returns the cost column c(·, m) as a shared slice when the
// oracle supports it, nil otherwise. Callers must keep an At-based fallback
// and must not mutate the slice. The slice may have been materialized
// lazily by the oracle (and may later be evicted from its cache), but it
// remains valid and immutable for as long as the caller holds it.
func (p *Problem) costColumn(m int) []int32 {
	if rc, ok := p.Cost.(RowCostFn); ok {
		return rc.Row(m)
	}
	return nil
}

// PlaceCosts holds the distances a placement of one object k on server m
// reads: c(P_k, m) and c(x, m) for each demander x of k. Build it with
// Problem.PlaceCosts; it is a read-only view, safe to share across
// goroutines.
type PlaceCosts struct {
	primary int32 // c(P_k, m)
	writes  int64 // w_mk, m's own writes of k
	// dist is m's row of k's co-demander block, indexed by demander position
	// (byPos), or the oracle's row c(m, ·), indexed by server id; nil when
	// the oracle answers only At.
	dist  []int32
	byPos bool
	cost  CostFn
	m     int
}

// PlaceCosts returns where a placement of object k on server m reads its
// distances. It finds m among k's demanders once; Demander then answers
// each demander in O(1).
func (p *Problem) PlaceCosts(k int32, m int) PlaceCosts {
	pc := PlaceCosts{cost: p.Cost, m: m}
	a, own := p.demanderPos(k, m)
	if own {
		ref := p.byObject[k][a]
		pc.primary = p.primaryCost[ref.Cell]
		pc.writes = p.Work.PerServer[m][ref.Slot].Writes
		if blk := p.coBlock(k); blk != nil {
			d := len(p.byObject[k])
			pc.dist, pc.byPos = blk[a*d:(a+1)*d:(a+1)*d], true
			return pc
		}
	}
	pc.dist = p.costColumn(m)
	if !own {
		pk := int(p.Work.Primary[k])
		if pc.dist != nil {
			pc.primary = pc.dist[pk]
		} else {
			pc.primary = p.Cost.At(pk, m)
		}
	}
	return pc
}

// Demander returns c(x, m) for x, the demander at position b of
// DemandersOf(k). Both slice reads inline into the demander walks; only
// the At fallback is a call.
func (pc *PlaceCosts) Demander(b int, x int32) int32 {
	if pc.dist == nil {
		return pc.at(x)
	}
	if pc.byPos {
		return pc.dist[b]
	}
	return pc.dist[x]
}

// at is Demander's At fallback, kept out of line so Demander stays within
// the inlining budget.
//
//go:noinline
func (pc *PlaceCosts) at(x int32) int32 {
	return pc.cost.At(int(x), pc.m)
}

// PlaceCost is the single-entry form of PlaceCosts: c(x, m) as a placement
// of object k on server m reads it for x, which must demand k. Agents that
// learn of a placement through the broadcast, each needing only its own
// distance, ask this instead of walking the demanders.
func (p *Problem) PlaceCost(k int32, m, x int) int32 {
	pc := p.PlaceCosts(k, m)
	b, _ := p.demanderPos(k, x)
	return pc.Demander(b, int32(x))
}
