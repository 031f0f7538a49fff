package replication

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
