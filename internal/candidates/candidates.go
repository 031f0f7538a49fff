// Package candidates enumerates the feasible (server, object) replica
// candidates of a DRP instance: pairs where the server reads the object,
// holds no copy of it, and where replication is at least initially
// beneficial. It keeps the set in three forms: Pair lists for the baseline
// solvers, one Agent per server (the paper's candidate list L_i), and the
// Arena, the flat form the incremental AGT-RAM engine iterates. Agents and
// the arena are priced by one routine, priceRow.
package candidates

import (
	"sort"

	"repro/internal/replication"
)

// Pair is one candidate placement.
type Pair struct {
	Server int
	Object int32
	Size   int64
	// Cell is the pair's demand cell, Problem.CellBase()[Server] plus the
	// object's slot in the server's demand row.
	Cell int32
}

// Build returns all candidate pairs of the instance, sorted by (server,
// object) for determinism. onlyBeneficial drops pairs whose benefit is not
// positive in the initial (primary-only) schema; since benefits only shrink
// as replicas appear, such pairs can never become attractive.
func Build(p *replication.Problem, onlyBeneficial bool) []Pair {
	s := p.NewSchema()
	var out []Pair
	for i := 0; i < p.M; i++ {
		base := p.CellBase()[i]
		for slot, d := range p.Work.PerServer[i] {
			if d.Reads == 0 {
				continue
			}
			if int(p.Work.Primary[d.Object]) == i {
				continue
			}
			if onlyBeneficial && s.LocalBenefit(i, d.Object) <= 0 {
				continue
			}
			out = append(out, Pair{Server: i, Object: d.Object, Size: p.Work.ObjectSize[d.Object], Cell: base + int32(slot)})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Server != out[b].Server {
			return out[a].Server < out[b].Server
		}
		return out[a].Object < out[b].Object
	})
	return out
}

// priceRow prices server i's demand row Work.PerServer[i]: against the
// primary-only placement when s is nil, else against s. It returns the
// server's residual capacity and the number of qualifying cells. A cell
// qualifies when the server reads the object, holds no copy of it, the
// object fits the residual, and its CoR valuation is positive; a cell that
// fails can never qualify later, because benefits and residuals only
// shrink. For every slot of the row, mark[slot] is 1 for a qualifier and -1
// otherwise, and a qualifier's nn[slot] and upd[slot] hold its Cand.NNCost
// and Cand.UpdCost. Both costs come from tables, never from the oracle:
// c(i, P_k) from the problem, c(i, NN_ik) from the schema.
func priceRow(p *replication.Problem, s *replication.Schema, i int, mark, nn []int32, upd []int64) (residual int64, n int32) {
	w := p.Work
	if s != nil {
		residual = s.Residual(i)
	} else {
		residual = p.Capacity[i] - p.PrimaryLoad(i)
	}
	row := w.PerServer[i]
	mark, nn, upd = mark[:len(row)], nn[:len(row)], upd[:len(row)]
	base := p.CellBase()[i]
	for slot, d := range row {
		mark[slot] = -1
		if d.Reads == 0 {
			continue // a write-only object never benefits from a copy
		}
		k := d.Object
		if s != nil {
			if s.HasReplica(k, i) {
				continue // a copy (primary or carried) is already local
			}
		} else if int(w.Primary[k]) == i {
			continue // the primary copy is already local
		}
		size := w.ObjectSize[k]
		if size > residual {
			continue
		}
		cell := base + int32(slot)
		cPk := p.PrimaryCost(cell)
		cNN := cPk
		if s != nil {
			cNN = s.NNCost(cell)
		}
		u := (w.TotalWrites[k] - d.Writes) * size * int64(cPk)
		if d.Reads*size*int64(cNN)-u <= 0 {
			continue // never beneficial: benefits only shrink
		}
		mark[slot], nn[slot], upd[slot] = 1, cNN, u
		n++
	}
	return residual, n
}
