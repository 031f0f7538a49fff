package distoracle

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
	"repro/internal/topology"
)

// Landmark is an approximate distance oracle: K landmark nodes chosen by
// farthest-point sampling, with one exact Dijkstra row stored per landmark
// (K×M int32 total). Queries answer the triangle upper bound
//
//	d̂(i,j) = min_L d(i,L) + d(L,j)  >=  d(i,j)
//
// in O(K) time with no graph access. The estimate is exact whenever some
// landmark lies on a shortest i–j path — in particular whenever i or j is
// itself a landmark, so K = M degenerates to the exact oracle. Landmark is
// deliberately NOT a replication.RowCostFn: it has no contiguous exact rows
// to share, and handing solvers an approximate row as if it were exact
// would cross the determinism boundary documented in DESIGN.md §13.
type Landmark struct {
	n, k int
	ids  []int32 // chosen landmark nodes, in selection order
	rows []int32 // k*n flat; rows[l*n+j] = exact d(ids[l], j)
}

// NewLandmark picks k landmarks over g by farthest-point sampling: the
// first landmark is node 0, each next is the node maximizing the distance
// to its nearest chosen landmark (ties to the lowest id). k <= 0 selects
// DefaultLandmarks; k is clamped to g.N(). workers is accepted for
// signature symmetry with Build; selection is inherently sequential (each
// choice depends on the previous row), so it is unused.
func NewLandmark(g *topology.Graph, k, workers int) (*Landmark, error) {
	_ = workers
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("distoracle: landmark oracle needs a non-empty graph")
	}
	if k <= 0 {
		k = DefaultLandmarks
	}
	if k > n {
		k = n
	}
	lm := &Landmark{
		n:    n,
		k:    k,
		ids:  make([]int32, 0, k),
		rows: make([]int32, k*n),
	}
	chosen := make([]bool, n)
	// minDist[v] = distance from v to its nearest chosen landmark.
	minDist := make([]int32, n)
	next := 0
	var sp topology.Dijkstra
	for l := 0; l < k; l++ {
		lm.ids = append(lm.ids, int32(next))
		chosen[next] = true
		row := lm.rows[l*n : (l+1)*n]
		sp.Run(g, next, row)
		best, bestDist := -1, int32(-1)
		for v := 0; v < n; v++ {
			if l == 0 || row[v] < minDist[v] {
				minDist[v] = row[v]
			}
			if !chosen[v] && minDist[v] > bestDist {
				best, bestDist = v, minDist[v]
			}
		}
		if best < 0 {
			break // every node is a landmark (k == n)
		}
		next = best
	}
	return lm, nil
}

// N implements replication.CostFn.
func (lm *Landmark) N() int { return lm.n }

// K reports the landmark count.
func (lm *Landmark) K() int { return lm.k }

// Landmarks returns the chosen landmark ids; callers must not mutate.
func (lm *Landmark) Landmarks() []int32 { return lm.ids }

// At implements replication.CostFn with the O(K) triangle upper bound.
func (lm *Landmark) At(i, j int) int32 {
	if i == j {
		return 0
	}
	best := int32(math.MaxInt32)
	for l := 0; l < lm.k; l++ {
		row := lm.rows[l*lm.n : (l+1)*lm.n]
		di, dj := row[i], row[j]
		if di == math.MaxInt32 || dj == math.MaxInt32 {
			continue
		}
		if s := di + dj; s < best {
			best = s
		}
	}
	return best
}

// ErrorDist summarizes the estimate error of the landmark oracle against
// exact Dijkstra rows from sampled sources: rel = (d̂ - d) / d over pairs
// with d > 0 (d̂ >= d always, so every rel is non-negative).
type ErrorDist struct {
	Sources   int     // sampled source rows
	Pairs     int64   // (source, target) pairs measured
	ExactFrac float64 // fraction of pairs with d̂ == d
	MeanRel   float64
	P95Rel    float64
	MaxRel    float64
}

// ErrorStats measures the oracle's distance-error distribution on g by
// comparing against exact rows from `sources` uniformly sampled nodes
// (clamped to N; <= 0 selects min(64, N)).
func (lm *Landmark) ErrorStats(g *topology.Graph, sources int, seed int64) ErrorDist {
	n := lm.n
	if sources <= 0 {
		sources = 64
	}
	if sources > n {
		sources = n
	}
	r := stats.NewRNG(seed)
	perm := r.Perm(n)
	exact := make([]int32, n)
	rels := make([]float64, 0, sources*(n-1))
	var pairs, exactPairs int64
	var sum float64
	var sp topology.Dijkstra
	for _, s := range perm[:sources] {
		sp.Run(g, s, exact)
		for j := 0; j < n; j++ {
			if j == s || exact[j] <= 0 || exact[j] == math.MaxInt32 {
				continue
			}
			est := lm.At(s, j)
			rel := float64(est-exact[j]) / float64(exact[j])
			pairs++
			if est == exact[j] {
				exactPairs++
			}
			sum += rel
			rels = append(rels, rel)
		}
	}
	d := ErrorDist{Sources: sources, Pairs: pairs}
	if pairs == 0 {
		return d
	}
	sort.Float64s(rels)
	d.ExactFrac = float64(exactPairs) / float64(pairs)
	d.MeanRel = sum / float64(pairs)
	d.P95Rel = rels[int(float64(len(rels)-1)*0.95)]
	d.MaxRel = rels[len(rels)-1]
	return d
}
