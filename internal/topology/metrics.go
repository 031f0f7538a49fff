package topology

// ClusteringCoefficient returns the average local clustering coefficient:
// for each node, the fraction of its neighbor pairs that are themselves
// connected, averaged over nodes of degree >= 2. Power-law and transit-stub
// graphs cluster; G(n,p) graphs cluster at about p.
func (g *Graph) ClusteringCoefficient() float64 {
	var sum float64
	counted := 0
	for u := 0; u < g.N(); u++ {
		deg := g.Degree(u)
		if deg < 2 {
			continue
		}
		links := 0
		nbrs := g.Neighbors(u)
		for a := 0; a < len(nbrs); a++ {
			for b := a + 1; b < len(nbrs); b++ {
				if g.HasEdge(int(nbrs[a].To), int(nbrs[b].To)) {
					links++
				}
			}
		}
		sum += 2 * float64(links) / float64(deg*(deg-1))
		counted++
	}
	if counted == 0 {
		return 0
	}
	return sum / float64(counted)
}

// AveragePathCost returns the mean finite c(i,j) over distinct pairs —
// the expected cost of a random one-unit transfer, the quantity the DRP
// minimizes traffic against.
func AveragePathCost(m *DistMatrix) float64 {
	var sum float64
	pairs := 0
	for i := 0; i < m.N(); i++ {
		for j := i + 1; j < m.N(); j++ {
			if d := m.At(i, j); d != Infinity {
				sum += float64(d)
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return sum / float64(pairs)
}
