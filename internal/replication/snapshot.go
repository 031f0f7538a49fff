package replication

// Snapshot returns an independent deep copy of the problem: the workload,
// capacities, demand index and primary-load table are all duplicated, so
// mutating the copy's demand matrices or capacities never affects the
// original. The cost oracle and the co-demander blocks are shared — every
// CostFn in the repository (distance matrices, UniformCost) is immutable
// after construction, and so are the blocks.
//
// The online controller solves against a snapshot so a buggy solver can
// never corrupt the placement being served, and the bench harness uses it
// to hand the same instance to several mutually isolated experiments.
func (p *Problem) Snapshot() *Problem {
	np := &Problem{
		M:           p.M,
		N:           p.N,
		Cost:        p.Cost,
		Work:        p.Work.Clone(),
		Capacity:    append([]int64(nil), p.Capacity...),
		byObject:    make([][]DemandRef, len(p.byObject)),
		primaryLoad: append([]int64(nil), p.primaryLoad...),
		cellBase:    append([]int32(nil), p.cellBase...),
		cellReads:   append([]int64(nil), p.cellReads...),
		primaryCost: append([]int32(nil), p.primaryCost...),
		coStart:     p.coStart,
		coCost:      p.coCost,
		baseCost:    p.baseCost,
	}
	for k, refs := range p.byObject {
		np.byObject[k] = append([]DemandRef(nil), refs...)
	}
	return np
}

// CarryOver rebuilds a placement from per-object replica sets (the form
// Schema.Matrix returns) against p, skipping any replica that is no longer
// feasible — the server's capacity shrank, the server left the system, or
// the object's primary moved. Objects beyond len(matrix) — new arrivals —
// stay primary-only. It returns the schema and the number of replicas that
// had to be dropped.
//
// This is the re-pricing primitive of the online controller: after a delta
// batch mutates the problem, the live placement is carried onto the new
// problem to see what it now costs.
func (p *Problem) CarryOver(matrix [][]int32) (*Schema, int) {
	s := p.NewSchema()
	dropped := 0
	for k, servers := range matrix {
		if k >= p.N {
			break
		}
		for _, m := range servers {
			if int32(p.Work.Primary[k]) == m {
				continue // the primary copy is implicit in NewSchema
			}
			if _, err := s.PlaceReplica(int32(k), int(m)); err != nil {
				dropped++
			}
		}
	}
	return s, dropped
}
