// Package distoracle provides pluggable distance oracles behind the
// replication.CostFn seam, breaking the O(M²) dense-matrix wall that caps
// instances near M≈1000.
//
// The mechanism in the paper only ever needs per-agent distance rows and
// nearest-replica lookups, never the full matrix at once, so the package
// offers three storage/accuracy trade-offs:
//
//   - CSRLazy: the graph plus an on-demand Dijkstra per row with a bounded
//     LRU row cache. Exact, O(M) memory per cached row; concurrent callers
//     compute distinct rows in parallel.
//   - Landmark: K landmarks chosen by farthest-point sampling, K×M stored
//     rows, d(i,j) ≈ min_L d(i,L)+d(L,j). Approximate (an upper bound on
//     the true distance) with a measurable error distribution; degenerates
//     to exact when K = M.
//   - Tree: Euler tour + LCA sparse table for tree graphs. Exact, O(M log M)
//     build, O(1) query, no per-pair storage at all.
//
// Build selects an oracle automatically: exact tree oracle for trees, the
// dense matrix below DenseAutoThreshold nodes (bit-identical with the
// historical behavior), CSRLazy above it. Approximate oracles are never
// auto-selected — an approximation must be an explicit caller choice.
package distoracle

import (
	"fmt"

	"repro/internal/replication"
	"repro/internal/topology"
)

// Mode selects an oracle implementation.
type Mode int

const (
	// ModeAuto picks Tree for trees, dense below DenseAutoThreshold,
	// CSRLazy otherwise. Never selects an approximate oracle.
	ModeAuto Mode = iota
	// ModeDense builds the full topology.AllPairs matrix.
	ModeDense
	// ModeCSR builds the lazy CSR + LRU-row-cache oracle.
	ModeCSR
	// ModeLandmark builds the approximate K-landmark oracle.
	ModeLandmark
	// ModeTree builds the exact LCA tree oracle (errors on non-trees).
	ModeTree
)

// String returns the CLI spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeDense:
		return "dense"
	case ModeCSR:
		return "csr"
	case ModeLandmark:
		return "landmark"
	case ModeTree:
		return "tree"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses the CLI spelling of a mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "auto", "":
		return ModeAuto, nil
	case "dense":
		return ModeDense, nil
	case "csr", "csr-lazy":
		return ModeCSR, nil
	case "landmark":
		return ModeLandmark, nil
	case "tree":
		return ModeTree, nil
	}
	return ModeAuto, fmt.Errorf("distoracle: unknown oracle %q (want auto|dense|csr|landmark|tree)", s)
}

// DenseAutoThreshold is the node count at or below which ModeAuto keeps the
// dense matrix: small instances fit comfortably in O(M²) and every
// historical result stays bit-identical. Above it, auto switches to the
// exact lazy CSR oracle.
const DenseAutoThreshold = 1024

// DefaultLandmarks is the landmark count used when Options.Landmarks is
// unset. 32 rows keeps memory at O(32·M) while the farthest-point spread
// covers the graph's periphery well on the paper's topology families.
const DefaultLandmarks = 32

// DefaultRowCacheRows bounds the CSRLazy cache when Options.RowCacheRows is
// unset. NewProblem prices every c(i, P_k) and a co-demander block for each
// object with d_k² ≤ M, so a solve asks the oracle for a row only when it
// places an object without a block, or places on a server that does not
// demand the object (carry-over, restore); 256 rows keep those recent
// columns while capping memory at O(256·M).
const DefaultRowCacheRows = 256

// Options configures Build.
type Options struct {
	// Mode selects the oracle; ModeAuto (the zero value) auto-selects an
	// exact oracle from the graph's shape.
	Mode Mode
	// Landmarks is the K for ModeLandmark; DefaultLandmarks if <= 0,
	// clamped to the node count. K = M is exact.
	Landmarks int
	// RowCacheRows bounds the CSRLazy LRU cache; DefaultRowCacheRows if
	// <= 0.
	RowCacheRows int
	// Workers bounds build-time parallelism (dense fan-out, landmark row
	// sweeps); <= 0 selects GOMAXPROCS.
	Workers int
}

// Build constructs the selected distance oracle over g. The result always
// implements replication.CostFn; dense and CSR results additionally
// implement replication.RowCostFn.
func Build(g *topology.Graph, opts Options) (replication.CostFn, error) {
	mode := opts.Mode
	if mode == ModeAuto {
		switch {
		case IsTree(g):
			mode = ModeTree
		case g.N() <= DenseAutoThreshold:
			mode = ModeDense
		default:
			mode = ModeCSR
		}
	}
	switch mode {
	case ModeDense:
		if g.N() > topology.MaxDenseNodes {
			return nil, fmt.Errorf("distoracle: dense oracle needs n <= %d, got %d (use csr or landmark)",
				topology.MaxDenseNodes, g.N())
		}
		return topology.AllPairs(g, opts.Workers), nil
	case ModeCSR:
		return NewCSRLazy(g, opts.RowCacheRows), nil
	case ModeLandmark:
		return NewLandmark(g, opts.Landmarks, opts.Workers)
	case ModeTree:
		return NewTree(g)
	}
	return nil, fmt.Errorf("distoracle: invalid mode %v", opts.Mode)
}

// Kind names the concrete oracle behind a CostFn, for logs and result
// metadata.
func Kind(c replication.CostFn) string {
	switch c.(type) {
	case *topology.DistMatrix:
		return "dense"
	case *CSRLazy:
		return "csr-lazy"
	case *Landmark:
		return "landmark"
	case *Tree:
		return "tree"
	}
	return fmt.Sprintf("%T", c)
}
