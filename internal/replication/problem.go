// Package replication models the Data Replication Problem (DRP) of
// Section 2 of the paper: M servers with storage capacities, N objects with
// primary copies, per-server read/write frequencies, and the Object
// Transfer Cost (OTC) objective
//
//	C = Σ_i Σ_k ( R_ik + W_ik )
//	R_ik = r_ik · o_k · c(i, NN_ik)                                (Eq. 1)
//	W_ik = w_ik · o_k · ( c(i, P_k) + Σ_{j∈R_k, j≠i} c(P_k, j) )   (Eq. 2)
//
// subject to Σ_k X_ik·o_k ≤ s_i and X_{P_k,k} = 1 (Eq. 4's constraints).
//
// The central type is Schema, a mutable replica placement that maintains
// the exact OTC incrementally: placing one replica costs O(demanders(k))
// instead of a full O(M·N·|R|) recomputation. Every solver in the
// repository (AGT-RAM and the five baselines) runs against this engine, so
// their reported savings are directly comparable.
package replication

import (
	"fmt"
	"runtime"

	"repro/internal/pool"
	"repro/internal/stats"
	"repro/internal/workload"
)

// CostFn is the communication-cost oracle c(i,j). topology.DistMatrix
// implements it; tests may use synthetic metrics. Costs are symmetric: the
// c(i, P_k) table also answers c(P_k, i), the update-broadcast cost of a
// replica on i.
type CostFn interface {
	// At returns the cost of moving one data unit between servers i and j.
	At(i, j int) int32
	// N reports the number of servers covered.
	N() int
}

// RowCostFn is an optional CostFn fast path: a symmetric cost oracle whose
// rows are stored contiguously exposes Row(i), the shared slice of costs
// c(i, ·) — which, by symmetry, is also the column c(·, i). Hot
// per-demander walks index the slice directly instead of paying a virtual
// At call per server. topology.DistMatrix implements it (its symmetry is a
// validated metric invariant); asymmetric oracles must not.
type RowCostFn interface {
	CostFn
	Row(i int) []int32
}

// Problem is an immutable DRP instance.
type Problem struct {
	M, N     int
	Cost     CostFn
	Work     *workload.Workload
	Capacity []int64 // s_i, total storage per server (includes primary load)

	// byObject indexes demand cells by object: all (server, demand-slot)
	// pairs with demand on object k. Built once; shared by all schemas.
	byObject [][]DemandRef
	// primaryLoad is Σ_{k: P_k = i} o_k per server.
	primaryLoad []int64
	// cellBase[i] is the global id of server i's first demand cell; len M+1.
	// Flat per-cell tables (the schema's NN tables, the arena's slot map)
	// index with CellBase[i]+slot instead of nested slices.
	cellBase []int32
	// cellReads[cell] caches Work.PerServer[i][slot].Reads so the placement
	// hot loop reads one flat slice instead of chasing the nested workload.
	cellReads []int64
	// primaryCost[cell] is c(i, P_k) of the cell's server and object: the
	// primary-only nearest-replica cost, the write-ship cost and, by
	// symmetry, the update term of every CoR valuation. Priced once here so
	// schemas, arenas and agents never ask the oracle for it.
	primaryCost []int32
	// coStart and coCost hold the co-demander blocks (placecost.go): priced
	// object k's d_k×d_k block is coCost[coStart[k]:coStart[k+1]], an empty
	// range when k is unpriced. len(coStart) is N+1.
	coStart []int
	coCost  []int32
	// baseCost is the primary-only OTC, Σ (r_ik + w_ik)·o_k·c(i, P_k).
	baseCost int64
}

// DemandRef locates one demand cell: Work.PerServer[Server][Slot]. The
// per-object index of these refs is what lets solvers touch only the
// demanders of a placed object instead of rescanning every agent. Cell is
// the same cell's precomputed global id, CellBase()[Server]+Slot.
type DemandRef struct {
	Server int32
	Slot   int32 // index into Work.PerServer[Server]
	Cell   int32 // global demand-cell id
}

// NewProblem validates and indexes a DRP instance. The capacity slice must
// leave room for each server's primary copies.
func NewProblem(cost CostFn, w *workload.Workload, capacity []int64) (*Problem, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if cost.N() < w.M {
		return nil, fmt.Errorf("replication: cost matrix covers %d servers, workload needs %d", cost.N(), w.M)
	}
	if len(capacity) != w.M {
		return nil, fmt.Errorf("replication: capacity has %d entries, want %d", len(capacity), w.M)
	}
	p := &Problem{
		M:           w.M,
		N:           w.N,
		Cost:        cost,
		Work:        w,
		Capacity:    capacity,
		byObject:    make([][]DemandRef, w.N),
		primaryLoad: make([]int64, w.M),
	}
	for k := 0; k < w.N; k++ {
		p.primaryLoad[w.Primary[k]] += w.ObjectSize[k]
	}
	p.cellBase = make([]int32, w.M+1)
	var cells int32
	for i := 0; i < w.M; i++ {
		p.cellBase[i] = cells
		cells += int32(len(w.PerServer[i]))
	}
	p.cellBase[w.M] = cells
	p.cellReads = make([]int64, cells)
	// pos[cell] is the cell's position in its object's demand index, which
	// places the server's row in the object's co-demander block.
	pos := make([]int32, cells)
	for i := 0; i < w.M; i++ {
		if capacity[i] < p.primaryLoad[i] {
			return nil, fmt.Errorf("replication: server %d capacity %d below its primary load %d",
				i, capacity[i], p.primaryLoad[i])
		}
		base := p.cellBase[i]
		for slot, d := range w.PerServer[i] {
			cell := base + int32(slot)
			p.cellReads[cell] = d.Reads
			pos[cell] = int32(len(p.byObject[d.Object]))
			p.byObject[d.Object] = append(p.byObject[d.Object],
				DemandRef{Server: int32(i), Slot: int32(slot), Cell: cell})
		}
	}
	p.priceCells(pos)
	return p, nil
}

// priceCells fills the c(i, P_k) table, the co-demander blocks and the
// base OTC. Servers are independent, so the pass fans out like the arena
// build; a row-view oracle answers each server from one row c(i, ·), which
// a lazy oracle materializes once here instead of once per reader or
// placement. Server i writes only its own cells and its own row of each
// block.
func (p *Problem) priceCells(pos []int32) {
	w := p.Work
	p.primaryCost = make([]int32, len(p.cellReads))
	p.coStart = make([]int, p.N+1)
	for k, refs := range p.byObject {
		p.coStart[k+1] = p.coStart[k]
		if d := len(refs); p.priced(d) {
			p.coStart[k+1] += d * d
		}
	}
	p.coCost = make([]int32, p.coStart[p.N])
	otc := make([]int64, p.M)
	pl := pool.New(runtime.GOMAXPROCS(0))
	defer pl.Close()
	pl.BatchGuided(p.M, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ds := w.PerServer[i]
			if len(ds) == 0 {
				continue
			}
			row := p.costColumn(i)
			base := p.cellBase[i]
			for slot, d := range ds {
				pk := int(w.Primary[d.Object])
				var c int32
				if row != nil {
					c = row[pk]
				} else {
					c = p.Cost.At(i, pk)
				}
				p.primaryCost[base+int32(slot)] = c
				otc[i] += (d.Reads + d.Writes) * w.ObjectSize[d.Object] * int64(c)
				if blk := p.coBlock(d.Object); blk != nil {
					p.fillBlockRow(blk, d.Object, int(pos[base+int32(slot)]), i, row)
				}
			}
		}
	})
	for _, c := range otc {
		p.baseCost += c
	}
}

// CellBase returns the demand-cell prefix table: server i's demand cells
// occupy global ids [CellBase()[i], CellBase()[i+1]). The slice is shared;
// callers must not mutate it.
func (p *Problem) CellBase() []int32 { return p.cellBase }

// Cells reports the total number of demand cells across all servers.
func (p *Problem) Cells() int { return len(p.cellReads) }

// PrimaryCost returns c(i, P_k) for demand cell CellBase()[i]+slot, where
// k is the object of Work.PerServer[i][slot]. By symmetry it is also
// c(P_k, i).
func (p *Problem) PrimaryCost(cell int32) int32 { return p.primaryCost[cell] }

// BaseCost returns the OTC of the primary-only placement.
func (p *Problem) BaseCost() int64 { return p.baseCost }

// PrimaryLoad reports the storage consumed on server i by primary copies.
func (p *Problem) PrimaryLoad(i int) int64 { return p.primaryLoad[i] }

// Demanders reports how many servers have demand for object k.
func (p *Problem) Demanders(k int32) int { return len(p.byObject[k]) }

// DemandersOf returns the demand index of object k: every (server, slot)
// with demand on k. The slice is shared; callers must not mutate it.
func (p *Problem) DemandersOf(k int32) []DemandRef { return p.byObject[k] }

// ReplicationHeadroom converts the paper's capacity percentage C% into a
// system-wide replica budget: at C%, the servers together can hold about
// C/100 × ReplicationHeadroom extra copies of the whole catalogue. The
// constant is calibrated so that the Figure 3 sweep (C = 10..40%) crosses
// the binding-to-saturated transition inside the plotted range, as in the
// paper. (Taken literally, the paper's capacity description — every server
// holds 0.5x to 1.5x the *total* primary size — never binds and would make
// Figure 3 flat; see DESIGN.md for the substitution note.)
const ReplicationHeadroom = 20.0

// GenerateCapacities draws per-server capacities for the paper's C%
// parameter: each server targets (C/100)·ReplicationHeadroom·T/M storage
// units (T = total primary size, M = servers), jittered uniformly in
// [0.5, 1.5) of the target and always at least the server's primary load so
// the instance is feasible.
func GenerateCapacities(w *workload.Workload, percent float64, r *stats.RNG) ([]int64, error) {
	if percent <= 0 {
		return nil, fmt.Errorf("replication: capacity percent must be positive, got %v", percent)
	}
	total := w.TotalPrimarySize()
	target := float64(total) * percent / 100 * ReplicationHeadroom / float64(w.M)
	primaryLoad := make([]int64, w.M)
	for k := 0; k < w.N; k++ {
		primaryLoad[w.Primary[k]] += w.ObjectSize[k]
	}
	caps := make([]int64, w.M)
	for i := range caps {
		jitter := 0.5 + r.Float64() // uniform in [0.5, 1.5)
		c := int64(target * jitter)
		if c < primaryLoad[i] {
			c = primaryLoad[i]
		}
		caps[i] = c
	}
	return caps, nil
}

// UniformCost is a trivial CostFn for tests: c(i,j) = w for i != j, 0 on the
// diagonal.
type UniformCost struct {
	Nodes  int
	Weight int32
}

// At implements CostFn.
func (u UniformCost) At(i, j int) int32 {
	if i == j {
		return 0
	}
	return u.Weight
}

// N implements CostFn.
func (u UniformCost) N() int { return u.Nodes }
