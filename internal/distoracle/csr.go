package distoracle

import (
	"container/list"
	"sync"

	"repro/internal/topology"
)

// CSRLazy is an exact distance oracle that stores only the graph and
// materializes distance rows on demand with topology.Dijkstra. Finished
// rows live in a bounded LRU cache so solver passes that revisit the same
// servers hit memory instead of recomputing. Despite the name it keeps no
// compressed-sparse-row copy of the graph: the radix-queue search runs as
// fast over the graph's own adjacency lists.
//
// Memory is the shared graph plus O(cacheRows·M) for the cache — versus
// O(M²) for the dense matrix. replication.NewProblem reads every server's
// row once to price its c(i, P_k) table and co-demander blocks; after that
// an AGT-RAM or greedy solve asks for rows only on placements the blocks do
// not cover. Concurrency: the mutex guards only cache
// bookkeeping; Dijkstra runs outside it, so goroutines requesting distinct
// rows compute in parallel, and an in-flight map deduplicates goroutines
// racing for the same row. Evicted rows stay valid for callers that
// already hold them (the GC reclaims them when the last reference drops),
// which is what lets a placement keep a lazily materialized column slice
// across its demander walk.
type CSRLazy struct {
	g   *topology.Graph
	cap int // max cached rows

	scratch sync.Pool // *topology.Dijkstra

	mu       sync.Mutex
	rows     map[int32]*list.Element // node -> LRU element holding *csrRow
	lru      *list.List              // front = most recently used
	inflight map[int32]chan struct{} // rows being computed right now

	hits, misses, evictions int64 // guarded by mu
}

type csrRow struct {
	node int32
	dist []int32
}

// NewCSRLazy returns an empty-cache oracle over g, which it shares: g must
// not change afterwards. cacheRows bounds the LRU cache; <= 0 selects
// DefaultRowCacheRows.
func NewCSRLazy(g *topology.Graph, cacheRows int) *CSRLazy {
	if cacheRows <= 0 {
		cacheRows = DefaultRowCacheRows
	}
	c := &CSRLazy{
		g:        g,
		cap:      cacheRows,
		rows:     make(map[int32]*list.Element, cacheRows),
		lru:      list.New(),
		inflight: make(map[int32]chan struct{}),
	}
	c.scratch.New = func() interface{} { return new(topology.Dijkstra) }
	return c
}

// N implements replication.CostFn.
func (c *CSRLazy) N() int { return c.g.N() }

// At implements replication.CostFn. The diagonal short-circuits to zero and
// either endpoint's cached row can answer (distances are symmetric), so
// row-then-column access patterns like RecomputeCost never trigger one
// Dijkstra per cell.
func (c *CSRLazy) At(i, j int) int32 {
	if i == j {
		return 0
	}
	c.mu.Lock()
	if e, ok := c.rows[int32(i)]; ok {
		c.lru.MoveToFront(e)
		v := e.Value.(*csrRow).dist[j]
		c.hits++
		c.mu.Unlock()
		return v
	}
	if e, ok := c.rows[int32(j)]; ok {
		c.lru.MoveToFront(e)
		v := e.Value.(*csrRow).dist[i]
		c.hits++
		c.mu.Unlock()
		return v
	}
	c.mu.Unlock()
	return c.Row(i)[j]
}

// Row implements replication.RowCostFn: the full distance row c(i, ·),
// computed on first touch and cached. The returned slice is immutable and
// remains valid after eviction.
func (c *CSRLazy) Row(i int) []int32 {
	key := int32(i)
	c.mu.Lock()
	for {
		if e, ok := c.rows[key]; ok {
			c.lru.MoveToFront(e)
			row := e.Value.(*csrRow).dist
			c.hits++
			c.mu.Unlock()
			return row
		}
		ch, busy := c.inflight[key]
		if !busy {
			break
		}
		// Another goroutine is computing this row; wait and re-check (the
		// row can be evicted between its insert and our wakeup).
		c.mu.Unlock()
		<-ch
		c.mu.Lock()
	}
	ch := make(chan struct{})
	c.inflight[key] = ch
	c.misses++
	c.mu.Unlock()

	dist := make([]int32, c.g.N())
	d := c.scratch.Get().(*topology.Dijkstra)
	d.Run(c.g, i, dist)
	c.scratch.Put(d)

	c.mu.Lock()
	delete(c.inflight, key)
	e := c.lru.PushFront(&csrRow{node: key, dist: dist})
	c.rows[key] = e
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.rows, back.Value.(*csrRow).node)
		c.evictions++
	}
	c.mu.Unlock()
	close(ch)
	return dist
}

// CacheStats reports cache behavior since construction. The daemon surfaces
// it under /metrics (controller.row_cache) and topogen prints it after
// sampled stats, so a solve that thrashes the LRU (M far beyond the cache
// budget — the Dijkstra-bound regime) shows up as a miss/evict ratio instead
// of silent slowness.
type CacheStats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	CachedRows int   `json:"cached_rows"`
}

// Stats returns a snapshot of the cache counters.
func (c *CSRLazy) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, CachedRows: c.lru.Len()}
}
