package topology

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
)

// DistMatrix is the dense all-pairs shortest-path matrix c(i,j) of a graph:
// the communication cost of moving one simple data unit between servers i
// and j. It is symmetric with a zero diagonal. Entries are int32 (paper
// costs are small positive integers; path sums stay well inside int32 for
// any graph this package generates).
type DistMatrix struct {
	n int
	d []int32 // row-major n*n
}

// Infinity marks an unreachable pair. Generators in this package always
// return connected graphs, so user code normally never sees it.
const Infinity int32 = math.MaxInt32

// N reports the node count.
func (m *DistMatrix) N() int { return m.n }

// At returns c(i,j).
func (m *DistMatrix) At(i, j int) int32 { return m.d[i*m.n+j] }

// Row returns the i-th row as a shared slice; callers must not mutate it.
func (m *DistMatrix) Row(i int) []int32 { return m.d[i*m.n : (i+1)*m.n] }

// MaxFinite returns the largest finite entry (the weighted diameter).
func (m *DistMatrix) MaxFinite() int32 {
	var max int32
	for _, v := range m.d {
		if v != Infinity && v > max {
			max = v
		}
	}
	return max
}

// Validate checks the metric invariants: zero diagonal, symmetry, and the
// triangle inequality (the latter only up to sampleLimit rows to keep the
// check affordable on big instances; pass n for an exhaustive check).
func (m *DistMatrix) Validate(sampleLimit int) error {
	for i := 0; i < m.n; i++ {
		if m.At(i, i) != 0 {
			return fmt.Errorf("topology: nonzero diagonal at %d: %d", i, m.At(i, i))
		}
		for j := i + 1; j < m.n; j++ {
			if m.At(i, j) != m.At(j, i) {
				return fmt.Errorf("topology: asymmetric distance (%d,%d): %d vs %d", i, j, m.At(i, j), m.At(j, i))
			}
		}
	}
	lim := sampleLimit
	if lim > m.n {
		lim = m.n
	}
	for i := 0; i < lim; i++ {
		for j := 0; j < m.n; j++ {
			for k := 0; k < lim; k++ {
				a, b, c := m.At(i, j), m.At(i, k), m.At(k, j)
				if a == Infinity || b == Infinity || c == Infinity {
					continue
				}
				if int64(a) > int64(b)+int64(c) {
					return fmt.Errorf("topology: triangle violation d(%d,%d)=%d > d(%d,%d)+d(%d,%d)=%d",
						i, j, a, i, k, k, j, int64(b)+int64(c))
				}
			}
		}
	}
	return nil
}

// MaxDenseNodes is the largest node count for which a dense n*n int32
// matrix can be indexed without overflowing int32 arithmetic on row
// offsets (floor(sqrt(2^31-1)) = 46340). Beyond this, use the lazy or
// landmark oracles in internal/distoracle instead of a dense matrix.
const MaxDenseNodes = 46340

// AllPairs computes the all-pairs shortest-path matrix with one Dijkstra per
// source, fanned out over a worker pool. workers <= 0 selects GOMAXPROCS.
// Panics for n > MaxDenseNodes, where the n*n element count would silently
// wrap int32 index math; such instances must use internal/distoracle.
func AllPairs(g *Graph, workers int) *DistMatrix {
	n := g.N()
	if n > MaxDenseNodes {
		panic(fmt.Sprintf("topology: AllPairs with n=%d exceeds MaxDenseNodes=%d (n*n overflows int32); use internal/distoracle", n, MaxDenseNodes))
	}
	m := &DistMatrix{n: n, d: make([]int32, n*n)}
	StreamRows(g, workers, m.Row)
	return m
}

// StreamRows runs one Dijkstra per source over a worker pool, writing each
// source's finished distance row into the slice returned by rowOf(src).
// rowOf must return a caller-owned []int32 of length g.N(); it is invoked
// from worker goroutines and must be safe for concurrent calls with
// distinct sources. Unlike AllPairs this never allocates n*n storage
// itself, so oracle layers can stream rows into bounded caches or K-row
// landmark tables. workers <= 0 selects GOMAXPROCS.
func StreamRows(g *Graph, workers int, rowOf func(src int) []int32) {
	n := g.N()
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	src := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var d Dijkstra // per-worker queue buffers, reused across sources
			for s := range src {
				d.Run(g, s, rowOf(s))
			}
		}()
	}
	for s := 0; s < n; s++ {
		src <- s
	}
	close(src)
	wg.Wait()
}

// Dijkstra is the repository's single-source shortest-path routine: every
// dense matrix, lazily materialized oracle row and landmark row is one Run.
// Its priority queue is a monotone radix queue, which fits Dijkstra's
// integer keys: no key is ever pushed below the last one popped. The zero
// value is ready to use and keeps its buffers across runs; a Dijkstra must
// not run on two goroutines at once.
type Dijkstra struct {
	q radixQueue
}

// Run fills dist (length g.N()) with the shortest-path distances from src.
// Unreachable nodes get Infinity.
func (d *Dijkstra) Run(g *Graph, src int, dist []int32) {
	for i := range dist {
		dist[i] = Infinity
	}
	dist[src] = 0
	q := &d.q
	q.reset()
	q.push(0, int32(src))
	for q.size > 0 {
		du, u := q.pop()
		if du != dist[u] {
			continue // superseded by a shorter path pushed later
		}
		for _, e := range g.adj[u] {
			if nd := du + e.Weight; nd < dist[e.To] {
				dist[e.To] = nd
				q.push(nd, e.To)
			}
		}
	}
}

// radixQueue is a monotone min-queue of (distance, node) items. Bucket b
// holds the items whose distance first differs from last, the most recent
// minimum, in bit b-1; bucket 0 holds items equal to last. A pop that
// finds bucket 0 empty takes the lowest non-empty bucket, makes its
// minimum the new last and redistributes it: every item there lands in a
// strictly lower bucket, so an item moves at most 31 times over its life
// (distances are non-negative int32s: 31 bits) and no pop compares more
// than one bucket's items.
type radixQueue struct {
	last    int32
	size    int
	buckets [32][]uint64 // distance<<32 | node
}

func (q *radixQueue) reset() {
	q.last, q.size = 0, 0
	for b := range q.buckets {
		q.buckets[b] = q.buckets[b][:0]
	}
}

// push adds node at distance dist, which must be >= the last popped
// distance.
func (q *radixQueue) push(dist, node int32) {
	b := bits.Len32(uint32(dist ^ q.last))
	q.buckets[b] = append(q.buckets[b], uint64(dist)<<32|uint64(node))
	q.size++
}

// pop removes an item of minimum distance; the queue must be non-empty.
func (q *radixQueue) pop() (dist, node int32) {
	if len(q.buckets[0]) == 0 {
		b := 1
		for len(q.buckets[b]) == 0 {
			b++
		}
		items := q.buckets[b]
		least := items[0]
		for _, it := range items[1:] {
			if it < least {
				least = it
			}
		}
		q.last = int32(least >> 32)
		for _, it := range items {
			nb := bits.Len32(uint32(int32(it>>32) ^ q.last))
			q.buckets[nb] = append(q.buckets[nb], it)
		}
		q.buckets[b] = items[:0]
	}
	top := len(q.buckets[0]) - 1
	it := q.buckets[0][top]
	q.buckets[0] = q.buckets[0][:top]
	q.size--
	return int32(it >> 32), int32(uint32(it))
}
