// Package pool provides a tiny persistent worker pool for the solvers'
// fan-out loops: Batch for uniform per-index work, BatchGuided for skewed
// per-server work. Workers live for the lifetime of the pool, so algorithms
// with many small parallel phases (the synchronous engine's per-round
// PARFOR scan, greedy's per-iteration pricing) do not pay a goroutine spawn
// per phase.
package pool

import (
	"sync"
	"sync/atomic"
)

// Pool is a fixed-size persistent worker pool.
type Pool struct {
	workers int
	tasks   chan func()
	wg      sync.WaitGroup
	cursor  atomic.Int64 // work-stealing cursor for BatchGuided
}

// New starts a pool with n workers (at least 1).
func New(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{workers: n, tasks: make(chan func(), n)}
	for i := 0; i < n; i++ {
		go func() {
			for f := range p.tasks {
				f()
				p.wg.Done()
			}
		}()
	}
	return p
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close shuts the workers down. The pool must be idle.
func (p *Pool) Close() { close(p.tasks) }

// Batch splits [0, n) into one contiguous chunk per worker, runs the chunks
// on the pool, and blocks until all complete. f must be safe for concurrent
// calls on disjoint ranges.
//
// Static even chunking is ideal when per-index work is uniform; when it is
// skewed (per-agent candidate counts vary wildly), a worker can be stranded
// on the one heavy chunk while the rest idle — use BatchGuided there.
func (p *Pool) Batch(n int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 {
		f(0, n)
		return
	}
	chunk := (n + p.workers - 1) / p.workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		lo, hi := lo, hi
		p.wg.Add(1)
		p.tasks <- func() { f(lo, hi) }
	}
	p.wg.Wait()
}

// BatchGuided runs f over [0, n) in chunks of the given size handed out by
// an atomic counter: workers that finish early immediately grab the next
// chunk instead of idling, so skewed per-index work self-balances. Every
// index is covered exactly once; which worker runs which chunk is
// scheduling-dependent, so f must not care (disjoint writes, commutative
// accumulation). chunk <= 0 selects a size that gives each worker ~4 chunks.
func (p *Pool) BatchGuided(n, chunk int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = (n + 4*p.workers - 1) / (4 * p.workers)
		if chunk < 1 {
			chunk = 1
		}
	}
	if p.workers == 1 || n <= chunk {
		f(0, n)
		return
	}
	p.cursor.Store(0)
	c := int64(chunk)
	worker := func() {
		for {
			lo := p.cursor.Add(c) - c
			if lo >= int64(n) {
				return
			}
			hi := lo + c
			if hi > int64(n) {
				hi = int64(n)
			}
			f(int(lo), int(hi))
		}
	}
	for i := 0; i < p.workers; i++ {
		p.wg.Add(1)
		p.tasks <- worker
	}
	p.wg.Wait()
}
