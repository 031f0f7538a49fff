package online

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/replication"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Kind discriminates workload deltas. The taxonomy covers everything that
// drifts in a running system: demand frequencies, the object catalogue, and
// the server population.
type Kind string

// The five delta kinds.
const (
	// KindDemand adjusts one (server, object) cell's read/write frequencies
	// by a signed amount; the result is clamped at zero.
	KindDemand Kind = "demand"
	// KindAddObject appends a new object to the catalogue (size, primary);
	// it starts with no demand and no replicas beyond the primary copy.
	KindAddObject Kind = "add-object"
	// KindRemoveObject retires an object: all demand for it is dropped and
	// surplus replicas dissolve at the next re-pricing. The primary copy
	// stays — Section 2's "cannot be de-allocated" — and the id is never
	// reused.
	KindRemoveObject Kind = "remove-object"
	// KindServerJoin activates a server with the given capacity. The server
	// id must be the next unused id (growing the system, if the cost oracle
	// covers it) or a previously departed one rejoining.
	KindServerJoin Kind = "server-join"
	// KindServerLeave removes a server from the system, PR 3's eviction
	// semantics applied to the controller: its demand is dropped, its
	// capacity collapses to its primary load (primaries are never lost), and
	// its surplus replicas dissolve at the next re-pricing.
	KindServerLeave Kind = "server-leave"
)

// Delta is one workload mutation. Which fields apply depends on Kind; the
// zero values of inapplicable fields are ignored.
type Delta struct {
	Kind   Kind  `json:"kind"`
	Server int   `json:"server,omitempty"`
	Object int32 `json:"object,omitempty"`
	// Reads and Writes are signed frequency adjustments (KindDemand).
	Reads  int64 `json:"reads,omitempty"`
	Writes int64 `json:"writes,omitempty"`
	// Size and Primary describe a new object (KindAddObject).
	Size    int64 `json:"size,omitempty"`
	Primary int   `json:"primary,omitempty"`
	// Capacity is the joining server's storage (KindServerJoin).
	Capacity int64 `json:"capacity,omitempty"`
}

// state is the controller's mutable materialization source: the demand
// rows, catalogue and server population that deltas mutate. A state is
// only ever touched under the controller's mutex; materialize derives the
// immutable Problem the read path serves from.
//
// demand[i] is server i's demand row in the workload.PerServer form:
// sorted by object, at most one entry per object. Rows are shared
// copy-on-write between the live state, its clones and every workload
// materialize has published, so a batch copies only the rows it changes.
// owned marks the rows this state copied during the current batch and may
// therefore write in place; a fresh clone owns none, so a published row is
// never written.
type state struct {
	cost     replication.CostFn
	capacity []int64 // declared capacity per server, len M
	active   []bool  // server participates, len M
	sizes    []int64 // o_k, len N (retired objects keep their size)
	primary  []int32 // P_k, len N
	retired  []bool  // object retired, len N
	demand   [][]workload.Demand
	owned    []bool // batch-local: demand[i] is this state's private copy
}

// newState seeds the mutable state from an initial workload and capacities.
func newState(cost replication.CostFn, w *workload.Workload, capacity []int64) (*state, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if cost.N() < w.M {
		return nil, fmt.Errorf("online: cost oracle covers %d servers, workload needs %d", cost.N(), w.M)
	}
	if len(capacity) != w.M {
		return nil, fmt.Errorf("online: capacity has %d entries, want %d", len(capacity), w.M)
	}
	st := &state{
		cost:     cost,
		capacity: append([]int64(nil), capacity...),
		active:   make([]bool, w.M),
		sizes:    append([]int64(nil), w.ObjectSize...),
		primary:  append([]int32(nil), w.Primary...),
		retired:  make([]bool, w.N),
		demand:   make([][]workload.Demand, w.M),
	}
	for i := range st.active {
		st.active[i] = true
	}
	// The caller keeps its workload, so the rows are copied once here;
	// Validate already guarantees they are sorted and duplicate-free.
	for i, ds := range w.PerServer {
		st.demand[i] = append([]workload.Demand(nil), ds...)
	}
	return st, nil
}

func (st *state) servers() int { return len(st.capacity) }
func (st *state) objects() int { return len(st.sizes) }

// clone copies the state so a delta batch can be validated and applied
// atomically: any error discards the clone and the live state is untouched.
// Demand rows are shared, not copied — the clone copies a row the first
// time the batch changes it.
func (st *state) clone() *state {
	return &state{
		cost:     st.cost,
		capacity: append([]int64(nil), st.capacity...),
		active:   append([]bool(nil), st.active...),
		sizes:    append([]int64(nil), st.sizes...),
		primary:  append([]int32(nil), st.primary...),
		retired:  append([]bool(nil), st.retired...),
		demand:   append([][]workload.Demand(nil), st.demand...),
		owned:    make([]bool, len(st.demand)),
	}
}

// own returns server i's row as this state's private copy, copying the
// shared row on its first change in the batch.
func (st *state) own(i int) []workload.Demand {
	if !st.owned[i] {
		row := make([]workload.Demand, len(st.demand[i]), len(st.demand[i])+1)
		copy(row, st.demand[i])
		st.demand[i] = row
		st.owned[i] = true
	}
	return st.demand[i]
}

// find locates object k in server i's row: its index, or the insertion
// point when absent.
func (st *state) find(i int, k int32) (int, bool) {
	return slices.BinarySearchFunc(st.demand[i], k, func(d workload.Demand, k int32) int {
		return cmp.Compare(d.Object, k)
	})
}

// addDemand adds the signed (reads, writes) to cell (i, k), clamping each
// at zero; a cell that ends at zero is deleted.
func (st *state) addDemand(i int, k int32, reads, writes int64) {
	j, found := st.find(i, k)
	if found {
		reads += st.demand[i][j].Reads
		writes += st.demand[i][j].Writes
	}
	reads, writes = max(reads, 0), max(writes, 0)
	switch {
	case reads == 0 && writes == 0:
		if found {
			st.dropAt(i, j)
		}
	case found:
		row := st.own(i)
		row[j].Reads, row[j].Writes = reads, writes
	default:
		st.demand[i] = slices.Insert(st.own(i), j, workload.Demand{Object: k, Reads: reads, Writes: writes})
	}
}

// dropAt deletes the j-th cell of server i's row. An emptied row becomes
// nil, the form a workload built from scratch has.
func (st *state) dropAt(i, j int) {
	st.demand[i] = slices.Delete(st.own(i), j, j+1)
	if len(st.demand[i]) == 0 {
		st.demand[i] = nil
	}
}

// apply mutates the state with one delta, validating it first.
func (st *state) apply(d Delta) error {
	switch d.Kind {
	case KindDemand:
		if d.Server < 0 || d.Server >= st.servers() {
			return fmt.Errorf("online: demand delta for server %d outside [0,%d)", d.Server, st.servers())
		}
		if !st.active[d.Server] {
			return fmt.Errorf("online: demand delta for departed server %d", d.Server)
		}
		if d.Object < 0 || int(d.Object) >= st.objects() {
			return fmt.Errorf("online: demand delta for object %d outside [0,%d)", d.Object, st.objects())
		}
		if st.retired[d.Object] {
			return fmt.Errorf("online: demand delta for retired object %d", d.Object)
		}
		st.addDemand(d.Server, d.Object, d.Reads, d.Writes)
		return nil

	case KindAddObject:
		if d.Size < 1 {
			return fmt.Errorf("online: add-object needs size >= 1, got %d", d.Size)
		}
		if d.Primary < 0 || d.Primary >= st.servers() || !st.active[d.Primary] {
			return fmt.Errorf("online: add-object primary %d is not an active server", d.Primary)
		}
		st.sizes = append(st.sizes, d.Size)
		st.primary = append(st.primary, int32(d.Primary))
		st.retired = append(st.retired, false)
		return nil

	case KindRemoveObject:
		if d.Object < 0 || int(d.Object) >= st.objects() {
			return fmt.Errorf("online: remove-object %d outside [0,%d)", d.Object, st.objects())
		}
		if st.retired[d.Object] {
			return fmt.Errorf("online: object %d already retired", d.Object)
		}
		st.retired[d.Object] = true
		for i := range st.demand {
			if j, found := st.find(i, d.Object); found {
				st.dropAt(i, j)
			}
		}
		return nil

	case KindServerJoin:
		if d.Capacity < 0 {
			return fmt.Errorf("online: server-join needs capacity >= 0, got %d", d.Capacity)
		}
		switch {
		case d.Server >= 0 && d.Server < st.servers():
			if st.active[d.Server] {
				return fmt.Errorf("online: server %d is already active", d.Server)
			}
			st.active[d.Server] = true
			st.capacity[d.Server] = d.Capacity
		case d.Server == st.servers():
			if st.cost.N() <= d.Server {
				return fmt.Errorf("online: cost oracle covers %d servers, cannot grow to %d", st.cost.N(), d.Server+1)
			}
			st.capacity = append(st.capacity, d.Capacity)
			st.active = append(st.active, true)
			st.demand = append(st.demand, nil)
			st.owned = append(st.owned, false)
		default:
			return fmt.Errorf("online: server-join id %d is neither an existing server nor the next id %d", d.Server, st.servers())
		}
		return nil

	case KindServerLeave:
		if d.Server < 0 || d.Server >= st.servers() {
			return fmt.Errorf("online: server-leave %d outside [0,%d)", d.Server, st.servers())
		}
		if !st.active[d.Server] {
			return fmt.Errorf("online: server %d already departed", d.Server)
		}
		st.active[d.Server] = false
		st.demand[d.Server] = nil
		return nil

	default:
		return fmt.Errorf("online: unknown delta kind %q", d.Kind)
	}
}

// materialize derives the immutable DRP instance of the current state.
// Departed servers contribute no demand and get exactly their primary load
// as capacity (they keep primaries, attract no new replicas); active
// servers' capacities are clamped up to their primary load so the instance
// stays feasible when objects were added onto a tight server. The workload
// takes the state's rows as they are — already sorted, shared
// copy-on-write — so only the per-object totals and primary loads are
// computed here, one pass each. NewProblem validates the workload.
func (st *state) materialize() (*replication.Problem, error) {
	m, n := st.servers(), st.objects()
	w := &workload.Workload{
		M:           m,
		N:           n,
		ObjectSize:  append([]int64(nil), st.sizes...),
		Primary:     append([]int32(nil), st.primary...),
		PerServer:   make([][]workload.Demand, m),
		TotalReads:  make([]int64, n),
		TotalWrites: make([]int64, n),
	}
	for i, row := range st.demand {
		if !st.active[i] {
			continue
		}
		w.PerServer[i] = row
		for _, d := range row {
			w.TotalReads[d.Object] += d.Reads
			w.TotalWrites[d.Object] += d.Writes
		}
	}
	caps := make([]int64, m)
	for k, p := range st.primary {
		caps[p] += st.sizes[k]
	}
	for i, pl := range caps {
		if st.active[i] {
			caps[i] = max(st.capacity[i], pl)
		}
	}
	return replication.NewProblem(st.cost, w, caps)
}

// DeltasFromEvents aggregates trace events into demand deltas: one delta
// per touched (server, object) cell, reads and writes counted. cm maps
// trace clients onto servers; a nil map sends client c to server c mod
// servers — the daemon's convention for raw trace streams. The result is
// sorted (server, then object) so delta application is deterministic.
func DeltasFromEvents(events []trace.Event, cm workload.ClientMap, servers int) ([]Delta, error) {
	if servers <= 0 {
		return nil, fmt.Errorf("online: DeltasFromEvents needs servers > 0, got %d", servers)
	}
	type key struct {
		server int
		object int32
	}
	type counts struct{ reads, writes int64 }
	acc := make(map[key]*counts)
	for _, e := range events {
		var srv int
		if cm == nil {
			srv = int(e.Client) % servers
			if srv < 0 {
				srv += servers
			}
		} else {
			if int(e.Client) >= len(cm) || e.Client < 0 {
				return nil, fmt.Errorf("online: client map covers %d clients, event references %d", len(cm), e.Client)
			}
			srv = int(cm[e.Client])
		}
		kk := key{server: srv, object: e.Object}
		cell := acc[kk]
		if cell == nil {
			cell = &counts{}
			acc[kk] = cell
		}
		if e.Write {
			cell.writes++
		} else {
			cell.reads++
		}
	}
	out := make([]Delta, 0, len(acc))
	for kk, cell := range acc {
		out = append(out, Delta{
			Kind: KindDemand, Server: kk.server, Object: kk.object,
			Reads: cell.reads, Writes: cell.writes,
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Server != out[b].Server {
			return out[a].Server < out[b].Server
		}
		return out[a].Object < out[b].Object
	})
	return out, nil
}
