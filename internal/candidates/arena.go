package candidates

import (
	"repro/internal/pool"
	"repro/internal/replication"
)

// Arena is the struct-of-arrays form of every agent's candidate list,
// allocated once per solve. Candidate c of server i lives at one index of
// the parallel slices; server i's candidates occupy the contiguous segment
// [Start[i], Start[i+1]), sorted by object id. The flat layout is what the
// incremental engine's round kernel iterates: no per-candidate boxing, no
// map lookups, and the per-agent segment doubles as the backing store of
// the agent's lazy heap.
type Arena struct {
	M int // servers

	// Candidate attributes, indexed by arena slot.
	Objs     []int32
	Sizes    []int64
	Reads    []int64
	NNCosts  []int32 // agent-local c(i, NN_ik); only ever decreases
	UpdCosts []int64 // constant update-traffic term of CoR

	// Start[i] is the first slot of server i's segment; len M+1.
	Start []int32
	// Residual is each server's free capacity at build time.
	Residual []int64

	// Slot2Cand maps demand cells to arena slots so a broadcast for object
	// k reaches a demander's candidate in O(1): the cell
	// Work.PerServer[i][slot] maps to Slot2Cand[SlotBase[i]+slot], which is
	// the candidate's arena slot or -1 when the cell never qualified.
	SlotBase  []int32 // len M+1
	Slot2Cand []int32
}

// Benefit is the candidate's CoR valuation (Eq. 5's essence) at its current
// cached nearest-neighbor cost.
func (a *Arena) Benefit(c int32) int64 {
	return a.Reads[c]*a.Sizes[c]*int64(a.NNCosts[c]) - a.UpdCosts[c]
}

// Len reports the size of server i's segment.
func (a *Arena) Len(i int) int { return int(a.Start[i+1] - a.Start[i]) }

// Cands reports the total candidate count.
func (a *Arena) Cands() int { return len(a.Objs) }

// BuildArena builds the arena against the initial (primary-only) placement:
// segment i holds exactly the candidates of NewAgent(p, i). Construction
// fans out over pl; servers are independent.
func BuildArena(p *replication.Problem, pl *pool.Pool) *Arena {
	return buildArena(p, nil, pl)
}

// BuildArenaFrom builds the arena priced against an existing placement:
// nearest-neighbor costs and residual capacities come from the schema, and
// objects a server already holds (primary or replica) are excluded. The
// schema is only read.
func BuildArenaFrom(s *replication.Schema, pl *pool.Pool) *Arena {
	return buildArena(s.Problem(), s, pl)
}

// buildArena runs the two-pass construction: a parallel pricing pass that
// runs priceRow over every server's row of demand cells (marking
// qualifiers in Slot2Cand and parking the priced terms in cell-indexed
// scratch), serial prefix sums fixing every segment, then a parallel
// compaction of the qualifiers into their disjoint segments. BatchGuided
// spreads the skew of uneven per-server demand lists.
func buildArena(p *replication.Problem, s *replication.Schema, pl *pool.Pool) *Arena {
	w := p.Work
	a := &Arena{
		M:        p.M,
		Start:    make([]int32, p.M+1),
		Residual: make([]int64, p.M),
		SlotBase: p.CellBase(), // shared, read-only
	}

	slots := int32(p.Cells())
	a.Slot2Cand = make([]int32, slots)

	// Pricing scratch, indexed by demand cell; compaction moves the values
	// of qualifying cells into the arena without re-pricing.
	nnScratch := make([]int32, slots)
	updScratch := make([]int64, slots)

	counts := make([]int32, p.M)
	pl.BatchGuided(p.M, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			first, end := a.SlotBase[i], a.SlotBase[i+1]
			a.Residual[i], counts[i] = priceRow(p, s, i, a.Slot2Cand[first:end], nnScratch[first:end], updScratch[first:end])
		}
	})

	var total int32
	for i := 0; i < p.M; i++ {
		a.Start[i] = total
		total += counts[i]
	}
	a.Start[p.M] = total

	a.Objs = make([]int32, total)
	a.Sizes = make([]int64, total)
	a.Reads = make([]int64, total)
	a.NNCosts = make([]int32, total)
	a.UpdCosts = make([]int64, total)

	pl.BatchGuided(p.M, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := a.Start[i]
			base := a.SlotBase[i]
			for slot, d := range w.PerServer[i] {
				cell := base + int32(slot)
				if a.Slot2Cand[cell] < 0 {
					continue
				}
				k := d.Object
				a.Objs[c] = k
				a.Sizes[c] = w.ObjectSize[k]
				a.Reads[c] = d.Reads
				a.NNCosts[c] = nnScratch[cell]
				a.UpdCosts[c] = updScratch[cell]
				a.Slot2Cand[cell] = c
				c++
			}
		}
	})
	return a
}
