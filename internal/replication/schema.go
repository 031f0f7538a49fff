package replication

import (
	"fmt"
	"slices"
	"sort"
)

// Schema is a mutable replica placement over a Problem. It starts at the
// paper's initial state — primary copies only — and maintains the exact
// OTC, per-server residual capacity, per-object replica sets, and the
// nearest-neighbor (NN) tables incrementally as replicas are placed.
type Schema struct {
	p *Problem

	replicas [][]int32 // per object: sorted server ids holding a copy (incl. primary)
	// NN tables, flat and indexed by global demand-cell id (Problem.cellBase):
	// one contiguous array each instead of M row slices, so the placement
	// hot loop does a single load per demander.
	nnCost   []int32 // c(i, NN_ik) per demand cell
	nnServer []int32 // NN_ik per demand cell
	sumBcast []int64 // S_k = Σ_{j∈R_k} c(P_k, j)
	residual []int64 // remaining capacity per server
	cost     int64   // current total OTC, maintained incrementally
	baseCost int64   // OTC of the primary-only placement
	placed   int     // replicas placed beyond primaries
}

// NewSchema returns the primary-copies-only placement. Its NN costs and
// OTC are the problem's c(i, P_k) table and base cost, so it never asks
// the oracle for a distance.
func (p *Problem) NewSchema() *Schema {
	s := &Schema{
		p:        p,
		replicas: make([][]int32, p.N),
		nnCost:   append([]int32(nil), p.primaryCost...),
		nnServer: make([]int32, p.Cells()),
		sumBcast: make([]int64, p.N),
		residual: make([]int64, p.M),
		cost:     p.baseCost,
		baseCost: p.baseCost,
	}
	// One backing array for the N replica lists instead of N tiny
	// allocations. Each list gets room for a primary plus three replicas —
	// enough for the typical placement — before its first grow-copy; the
	// full-slice expression walls lists off from their neighbors.
	backing := make([]int32, 4*p.N)
	for k := 0; k < p.N; k++ {
		backing[4*k] = p.Work.Primary[k]
		s.replicas[k] = backing[4*k : 4*k+1 : 4*k+4]
	}
	for i := 0; i < p.M; i++ {
		s.residual[i] = p.Capacity[i] - p.primaryLoad[i]
		base := p.cellBase[i]
		for j, d := range p.Work.PerServer[i] {
			s.nnServer[base+int32(j)] = p.Work.Primary[d.Object]
		}
	}
	return s
}

// Problem returns the underlying instance.
func (s *Schema) Problem() *Problem { return s.p }

// TotalCost returns the incrementally maintained OTC of the placement.
func (s *Schema) TotalCost() int64 { return s.cost }

// BaseCost returns the OTC of the primary-only placement.
func (s *Schema) BaseCost() int64 { return s.baseCost }

// Savings returns the paper's performance metric: the percentage of OTC
// saved relative to the primary-only placement.
func (s *Schema) Savings() float64 {
	if s.baseCost == 0 {
		return 0
	}
	return 100 * float64(s.baseCost-s.cost) / float64(s.baseCost)
}

// Residual reports server i's remaining capacity.
func (s *Schema) Residual(i int) int64 { return s.residual[i] }

// Placed reports the number of replicas placed beyond the primaries.
func (s *Schema) Placed() int { return s.placed }

// Replicas returns the sorted replica set of object k (shared slice; do not
// mutate).
func (s *Schema) Replicas(k int32) []int32 { return s.replicas[k] }

// HasReplica reports whether server m holds a copy of object k.
func (s *Schema) HasReplica(k int32, m int) bool {
	r := s.replicas[k]
	idx := replicaPos(r, int32(m))
	return idx < len(r) && r[idx] == int32(m)
}

// NNCost returns c(i, NN_ik) for demand cell CellBase()[i]+slot of the
// problem, where k is the object of Work.PerServer[i][slot].
func (s *Schema) NNCost(cell int32) int32 { return s.nnCost[cell] }

// NN returns the nearest replicator of object k from server i. For servers
// without demand on k it is computed on the fly, by Nearest.
func (s *Schema) NN(i int, k int32) int32 {
	if slot, ok := s.demandSlot(i, k); ok {
		return s.nnServer[s.p.cellBase[i]+int32(slot)]
	}
	return Nearest(s.p.Cost, s.replicas[k], i)
}

func (s *Schema) demandSlot(i int, k int32) (int, bool) {
	ds := s.p.Work.PerServer[i]
	idx := sort.Search(len(ds), func(j int) bool { return ds[j].Object >= k })
	if idx < len(ds) && ds[idx].Object == k {
		return idx, true
	}
	return 0, false
}

// CanPlace checks the DRP constraints for placing a replica of k on m:
// the server must exist, must not already hold a copy, and must have
// residual capacity for o_k.
func (s *Schema) CanPlace(k int32, m int) error {
	if k < 0 || int(k) >= s.p.N {
		return fmt.Errorf("replication: object %d out of range", k)
	}
	if m < 0 || m >= s.p.M {
		return fmt.Errorf("replication: server %d out of range", m)
	}
	if s.HasReplica(k, m) {
		return fmt.Errorf("replication: server %d already holds object %d", m, k)
	}
	if s.residual[m] < s.p.Work.ObjectSize[k] {
		return fmt.Errorf("replication: server %d residual %d below object %d size %d",
			m, s.residual[m], k, s.p.Work.ObjectSize[k])
	}
	return nil
}

// DeltaIfPlaced returns the exact change in total OTC that placing a
// replica of k on m would cause, without mutating the schema. Negative
// deltas are improvements.
func (s *Schema) DeltaIfPlaced(k int32, m int) int64 {
	p := s.p
	ok := p.Work.ObjectSize[k]
	pc := p.PlaceCosts(k, m)

	// Write side: S_k grows by c(P_k, m); server m stops paying the
	// broadcast share for its own writes (Eq. 2's j != i exclusion).
	delta := ok * int64(pc.primary) * (p.Work.TotalWrites[k] - pc.writes)

	// Read side: every demander whose NN cost exceeds c(i, m) improves.
	for b, ref := range p.byObject[k] {
		r := p.cellReads[ref.Cell]
		if r == 0 {
			continue
		}
		oldC := int64(s.nnCost[ref.Cell])
		newC := int64(pc.Demander(b, ref.Server))
		if newC < oldC {
			delta += r * ok * (newC - oldC)
		}
	}
	return delta
}

func (s *Schema) writeOf(i int, k int32) (int64, int64) {
	if slot, ok := s.demandSlot(i, k); ok {
		d := s.p.Work.PerServer[i][slot]
		return d.Writes, d.Reads
	}
	return 0, 0
}

// LocalBenefit is the agent-local valuation CoR of Section 4 (Eq. 5's
// essence): the read traffic server i saves by holding k, minus the update
// traffic it newly attracts from everyone else's writes. It uses only
// information available to agent i (its own demand, its NN table, the
// object's public write volume) — this locality is what makes the mechanism
// semi-distributed. Positive values are beneficial.
func (s *Schema) LocalBenefit(i int, k int32) int64 {
	p := s.p
	okSize := p.Work.ObjectSize[k]
	if slot, ok := s.demandSlot(i, k); ok {
		d := p.Work.PerServer[i][slot]
		cell := p.cellBase[i] + int32(slot)
		update := (p.Work.TotalWrites[k] - d.Writes) * okSize * int64(p.primaryCost[cell])
		return d.Reads*okSize*int64(s.nnCost[cell]) - update
	}
	// Without demand there are no reads to save, and every write is new
	// update traffic.
	return -p.Work.TotalWrites[k] * okSize * int64(p.Cost.At(int(p.Work.Primary[k]), i))
}

// PlaceReplica places a replica of k on m, updating cost, capacity, replica
// set and all NN entries of k's demanders. It returns the exact OTC delta.
func (s *Schema) PlaceReplica(k int32, m int) (int64, error) {
	if err := s.CanPlace(k, m); err != nil {
		return 0, err
	}
	delta := s.applyPlacement(k, m)
	return delta, nil
}

// applyPlacement performs the mutation; callers must have validated.
func (s *Schema) applyPlacement(k int32, m int) int64 {
	delta := s.placeObject(k, m)
	s.residual[m] -= s.p.Work.ObjectSize[k]
	s.cost += delta
	s.placed++
	return delta
}

// placeObject is the object-local part of placing a replica of k on m: the
// demander walk, the replica list and the broadcast sum. It returns the
// OTC delta and leaves the residual, the cost and the placed count to the
// caller. It reads and writes only object k's state, so placements of
// different objects may run concurrently (CarryOver's second pass).
func (s *Schema) placeObject(k int32, m int) int64 {
	p := s.p
	ok := p.Work.ObjectSize[k]
	pc := p.PlaceCosts(k, m)
	cPm := int64(pc.primary)
	delta := ok * cPm * (p.Work.TotalWrites[k] - pc.writes)

	// The demander walk is the placement's hot loop. It runs once per
	// distance source, so the per-demander cost is a plain slice load with
	// no branch on the source, even over an unpriced object's hundreds of
	// demanders; the flat cell-indexed NN tables make the update a single
	// store.
	refs := p.byObject[k]
	switch {
	case pc.byPos:
		for b, ref := range refs {
			delta += s.lowerNN(ref, pc.dist[b], m, ok)
		}
	case pc.dist != nil:
		for _, ref := range refs {
			delta += s.lowerNN(ref, pc.dist[ref.Server], m, ok)
		}
	default:
		for _, ref := range refs {
			delta += s.lowerNN(ref, pc.at(ref.Server), m, ok)
		}
	}

	// Insert m into the sorted replica list.
	r := s.replicas[k]
	idx := replicaPos(r, int32(m))
	r = append(r, 0)
	copy(r[idx+1:], r[idx:])
	r[idx] = int32(m)
	s.replicas[k] = r
	s.sumBcast[k] += cPm
	return delta
}

// lowerNN points a demand cell at the new replica on m when c, its distance
// to m, beats the cell's nearest copy, and returns the read-cost change for
// an object of size o.
func (s *Schema) lowerNN(ref DemandRef, c int32, m int, o int64) int64 {
	if c >= s.nnCost[ref.Cell] {
		return 0
	}
	var delta int64
	if r := s.p.cellReads[ref.Cell]; r > 0 {
		delta = r * o * int64(c-s.nnCost[ref.Cell])
	}
	s.nnCost[ref.Cell] = c
	s.nnServer[ref.Cell] = int32(m)
	return delta
}

// CanRemove checks whether a replica of k on m can be dropped: the copy
// must exist and must not be the primary (the primary copy "cannot be
// de-allocated" per Section 2).
func (s *Schema) CanRemove(k int32, m int) error {
	if k < 0 || int(k) >= s.p.N {
		return fmt.Errorf("replication: object %d out of range", k)
	}
	if m < 0 || m >= s.p.M {
		return fmt.Errorf("replication: server %d out of range", m)
	}
	if int(s.p.Work.Primary[k]) == m {
		return fmt.Errorf("replication: cannot de-allocate the primary copy of object %d", k)
	}
	if !s.HasReplica(k, m) {
		return fmt.Errorf("replication: server %d holds no replica of object %d", m, k)
	}
	return nil
}

// RemoveReplica drops the replica of k from m — the migration primitive of
// the adaptive extension ("automatic replication and migration of objects
// in response to demand changes", Section 7). It returns the exact OTC
// delta (usually positive: reads fall back to farther replicas; the update
// broadcast shrinks).
func (s *Schema) RemoveReplica(k int32, m int) (int64, error) {
	if err := s.CanRemove(k, m); err != nil {
		return 0, err
	}
	p := s.p
	ok := p.Work.ObjectSize[k]
	pk := int(p.Work.Primary[k])
	cPm := int64(p.Cost.At(pk, m))

	// Write side: the broadcast no longer reaches m (inverse of placement).
	wm, _ := s.writeOf(m, k)
	delta := -ok * cPm * (p.Work.TotalWrites[k] - wm)

	// Drop m from the sorted replica list first, so NN rescans see the
	// post-removal set.
	r := s.replicas[k]
	idx := replicaPos(r, int32(m))
	s.replicas[k] = append(r[:idx], r[idx+1:]...)

	// Read side: demanders whose nearest replica was m rescan.
	for _, ref := range p.byObject[k] {
		i := int(ref.Server)
		if s.nnServer[ref.Cell] != int32(m) {
			continue
		}
		best, bestCost := s.replicas[k][0], p.Cost.At(i, int(s.replicas[k][0]))
		for _, j := range s.replicas[k][1:] {
			if c := p.Cost.At(i, int(j)); c < bestCost {
				best, bestCost = j, c
			}
		}
		if r := p.cellReads[ref.Cell]; r > 0 {
			delta += r * ok * int64(bestCost-s.nnCost[ref.Cell])
		}
		s.nnServer[ref.Cell] = best
		s.nnCost[ref.Cell] = bestCost
	}

	s.sumBcast[k] -= cPm
	s.residual[m] += ok
	s.cost += delta
	s.placed--
	return delta, nil
}

// DeltaIfRemoved returns the exact OTC change dropping the replica of k
// from m would cause, without mutating the schema.
func (s *Schema) DeltaIfRemoved(k int32, m int) int64 {
	p := s.p
	ok := p.Work.ObjectSize[k]
	pk := int(p.Work.Primary[k])
	cPm := int64(p.Cost.At(pk, m))
	wm, _ := s.writeOf(m, k)
	delta := -ok * cPm * (p.Work.TotalWrites[k] - wm)
	for _, ref := range p.byObject[k] {
		i := int(ref.Server)
		if s.nnServer[ref.Cell] != int32(m) {
			continue
		}
		best := Infinity32
		for _, j := range s.replicas[k] {
			if int(j) == m {
				continue
			}
			if c := p.Cost.At(i, int(j)); c < best {
				best = c
			}
		}
		if r := p.cellReads[ref.Cell]; r > 0 {
			delta += r * ok * int64(best-s.nnCost[ref.Cell])
		}
	}
	return delta
}

// Served answers removal tests for one object of a schema. It groups the
// object's read cells by the replica that serves them, their nearest
// replicator, so a test walks only the cells the removed copy would send
// elsewhere. The grouping describes the schema as it was when built, so
// Reset x after any placement or removal of the object.
type Served struct {
	s       *Schema
	k       int32
	indexed bool
	// The cells Replicas(k)[j] serves are cells[start[j]:start[j+1]], each
	// a read cell's position in DemandersOf(k).
	start []int32
	cells []int32
	// dem[j] is Replicas(k)[j]'s position in DemandersOf(k), -1 when that
	// server does not demand k.
	dem []int32
	// Scratch for index: each read cell's nearest replica's position.
	pos []int32
}

// Reset points x at object k of s. The cells are grouped on the first test
// that walks them: a test that the write side alone decides never pays for
// the grouping.
func (x *Served) Reset(s *Schema, k int32) {
	x.s, x.k, x.indexed = s, k, false
}

// index groups the object's read cells by nearest replicator, reusing x's
// buffers. Cells without reads are left out: a removal cannot change
// their cost.
func (x *Served) index() {
	s, k := x.s, x.k
	p, r := s.p, s.replicas[k]
	refs := p.byObject[k]
	x.dem = x.dem[:0]
	for _, o := range r {
		a, own := p.demanderPos(k, int(o))
		if !own {
			a = -1
		}
		x.dem = append(x.dem, int32(a))
	}
	x.pos = slices.Grow(x.pos[:0], len(refs))[:len(refs)]
	x.start = slices.Grow(x.start[:0], len(r)+1)[:len(r)+1]
	clear(x.start)
	for b, ref := range refs {
		x.pos[b] = -1
		if p.cellReads[ref.Cell] > 0 {
			j := replicaPos(r, s.nnServer[ref.Cell])
			x.pos[b] = int32(j)
			x.start[j+1]++
		}
	}
	for j := range r {
		x.start[j+1] += x.start[j]
	}
	x.cells = slices.Grow(x.cells[:0], int(x.start[len(r)]))[:x.start[len(r)]]
	for b, j := range x.pos {
		if j >= 0 {
			// start[j] advances past each cell placed, and is restored below.
			x.cells[x.start[j]] = int32(b)
			x.start[j]++
		}
	}
	copy(x.start[1:], x.start[:len(r)])
	x.start[0] = 0
	x.indexed = true
}

// RemovalSaves reports whether dropping object k's replica from m lowers
// the OTC: exactly DeltaIfRemoved(k, m) < 0. It needs only the sign. It
// starts from the write-side saving, the update broadcast m stops
// receiving, and walks only the cells m serves, adding what each loses by
// falling back to its next-nearest copy. Those losses are never negative,
// because every cell's NN cost is the minimum over the replica set, so it
// stops as soon as they reach the saving. It reads the distances the
// problem has already priced where it can — c(i, P_k) from the cell's
// primary-cost entry, a distance between two demanders of a priced object
// from its co-demander block — which hold the oracle's own values
// (placecost.go), and asks the oracle for the rest.
func (x *Served) RemovalSaves(m int) bool {
	s, k := x.s, x.k
	p := s.p
	ok := p.Work.ObjectSize[k]
	// c(P_k, m), and m's own writes of k, which the broadcast never carried.
	// When m demands k, its demand cell holds both: the c(m, P_k) table
	// answers c(P_k, m) by symmetry, as it does for placements.
	var cPm int32
	var wm int64
	if a, own := p.demanderPos(k, m); own {
		ref := p.byObject[k][a]
		cPm, wm = p.primaryCost[ref.Cell], p.Work.PerServer[m][ref.Slot].Writes
	} else {
		cPm = p.Cost.At(int(p.Work.Primary[k]), m)
	}
	saving := ok * int64(cPm) * (p.Work.TotalWrites[k] - wm)
	if saving <= 0 {
		return false
	}
	r := s.replicas[k]
	jm := replicaPos(r, int32(m))
	if jm == len(r) || r[jm] != int32(m) {
		return true // no copy on m, so no cell loses anything
	}
	if !x.indexed {
		x.index()
	}
	refs, blk, primary := p.byObject[k], p.coBlock(k), p.Work.Primary[k]
	d := int32(len(refs))
	var loss int64
	for _, b := range x.cells[x.start[jm]:x.start[jm+1]] {
		ref := refs[b]
		best := Infinity32
		for j, o := range r {
			var c int32
			switch a := x.dem[j]; {
			case j == jm:
				continue
			case o == primary:
				c = p.primaryCost[ref.Cell]
			case a >= 0 && blk != nil:
				c = blk[a*d+b]
			default:
				c = p.Cost.At(int(ref.Server), int(o))
			}
			best = min(best, c)
		}
		loss += p.cellReads[ref.Cell] * ok * int64(best-s.nnCost[ref.Cell])
		if loss >= saving {
			return false
		}
	}
	return true
}

// replicaPos returns the position of server m in the sorted replica list
// r, or where it would be inserted: sort.Search without the closure call
// per probe, for the lookups every placement, removal and drop test makes.
func replicaPos(r []int32, m int32) int {
	lo, hi := 0, len(r)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if r[h] < m {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// RecomputeCost computes the OTC from scratch (Eqs. 1–3). It is the ground
// truth the incremental engine is verified against in tests.
func (s *Schema) RecomputeCost() int64 {
	p := s.p
	var total int64
	for i := 0; i < p.M; i++ {
		for _, d := range p.Work.PerServer[i] {
			k := d.Object
			ok := p.Work.ObjectSize[k]
			pk := int(p.Work.Primary[k])
			// Reads to the true nearest replicator.
			if d.Reads > 0 {
				best := int64(p.Cost.At(i, int(s.replicas[k][0])))
				for _, j := range s.replicas[k][1:] {
					if c := int64(p.Cost.At(i, int(j))); c < best {
						best = c
					}
				}
				total += d.Reads * ok * best
			}
			// Writes: ship to primary, then broadcast to all replicators
			// except the writer itself.
			if d.Writes > 0 {
				var bcast int64
				for _, j := range s.replicas[k] {
					if int(j) != i {
						bcast += int64(p.Cost.At(pk, int(j)))
					}
				}
				total += d.Writes * ok * (int64(p.Cost.At(i, pk)) + bcast)
			}
		}
	}
	return total
}

// Clone returns an independent deep copy of the schema, used by the search
// baselines (GRA, Aε-Star) to explore alternatives.
func (s *Schema) Clone() *Schema {
	c := &Schema{
		p:        s.p,
		replicas: make([][]int32, len(s.replicas)),
		nnCost:   append([]int32(nil), s.nnCost...),
		nnServer: append([]int32(nil), s.nnServer...),
		sumBcast: append([]int64(nil), s.sumBcast...),
		residual: append([]int64(nil), s.residual...),
		cost:     s.cost,
		baseCost: s.baseCost,
		placed:   s.placed,
	}
	for k := range s.replicas {
		c.replicas[k] = append([]int32(nil), s.replicas[k]...)
	}
	return c
}

// Matrix exports the replication matrix X as per-object replica sets.
func (s *Schema) Matrix() [][]int32 {
	out := make([][]int32, len(s.replicas))
	for k := range s.replicas {
		out[k] = append([]int32(nil), s.replicas[k]...)
	}
	return out
}

// ValidateInvariants cross-checks the incremental state against a full
// recomputation: exact cost agreement, capacity non-negativity, primary
// membership, NN correctness. Used by tests and by solvers in debug runs.
func (s *Schema) ValidateInvariants() error {
	if got := s.RecomputeCost(); got != s.cost {
		return fmt.Errorf("replication: incremental cost %d != recomputed %d", s.cost, got)
	}
	for i, r := range s.residual {
		if r < 0 {
			return fmt.Errorf("replication: server %d residual negative: %d", i, r)
		}
	}
	used := make([]int64, s.p.M)
	for k := range s.replicas {
		if !s.HasReplica(int32(k), int(s.p.Work.Primary[k])) {
			return fmt.Errorf("replication: object %d lost its primary copy", k)
		}
		for idx, j := range s.replicas[k] {
			if idx > 0 && s.replicas[k][idx-1] >= j {
				return fmt.Errorf("replication: object %d replica list unsorted", k)
			}
			used[j] += s.p.Work.ObjectSize[k]
		}
	}
	for i := 0; i < s.p.M; i++ {
		if used[i]+s.residual[i] != s.p.Capacity[i] {
			return fmt.Errorf("replication: server %d capacity accounting broken: used=%d residual=%d cap=%d",
				i, used[i], s.residual[i], s.p.Capacity[i])
		}
	}
	// NN tables must point at true nearest replicators.
	for i := 0; i < s.p.M; i++ {
		base := s.p.cellBase[i]
		for slot, d := range s.p.Work.PerServer[i] {
			best := int32(Infinity32)
			for _, j := range s.replicas[d.Object] {
				if c := s.p.Cost.At(i, int(j)); c < best {
					best = c
				}
			}
			if s.nnCost[base+int32(slot)] != best {
				return fmt.Errorf("replication: NN cost stale for server %d object %d: have %d want %d",
					i, d.Object, s.nnCost[base+int32(slot)], best)
			}
		}
	}
	return nil
}

// Infinity32 is a sentinel larger than any realistic path cost.
const Infinity32 = int32(1<<31 - 1)
