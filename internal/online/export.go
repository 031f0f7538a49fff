package online

import (
	"errors"
	"fmt"

	"repro/internal/replication"
	"repro/internal/workload"
)

// DemandEntry is one (server, object) demand cell on the wire.
type DemandEntry struct {
	Server int   `json:"server"`
	Object int32 `json:"object"`
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
}

// StateSnapshot is the wire form of a controller's mutable state: everything
// a fresh controller needs to continue from the same workload, minus the cost
// oracle (shared by configuration, not shipped). The cluster coordinator
// ships masked snapshots (Mask) to shard daemons on every (re-)assignment;
// demand is strictly ascending by (server, object), so the encoding is
// deterministic and every cell appears once.
type StateSnapshot struct {
	Capacity []int64       `json:"capacity"`
	Active   []bool        `json:"active"`
	Sizes    []int64       `json:"sizes"`
	Primary  []int32       `json:"primary"`
	Retired  []bool        `json:"retired"`
	Demand   []DemandEntry `json:"demand"`
}

// ErrInvalidState marks a StateSnapshot that fails Validate. Shipped state
// arrives over RPC with every assignment, so a malformed snapshot is a
// typed, matchable error (errors.Is) rather than a silently wrong instance.
var ErrInvalidState = errors.New("online: invalid state snapshot")

// Validate checks the snapshot's internal consistency: shapes agree, every
// index is in range, sizes are at least 1, frequencies are non-negative, and
// demand is strictly ascending by (server, object) — so no cell appears
// twice. Every error wraps ErrInvalidState. A snapshot that validates
// always builds a controller (NewFromState) over an oracle that covers it.
func (s *StateSnapshot) Validate() error {
	m, n := len(s.Capacity), len(s.Sizes)
	if m < 1 {
		return fmt.Errorf("%w: no servers", ErrInvalidState)
	}
	if len(s.Active) != m {
		return fmt.Errorf("%w: active has %d entries, want %d", ErrInvalidState, len(s.Active), m)
	}
	if len(s.Primary) != n || len(s.Retired) != n {
		return fmt.Errorf("%w: primary/retired have %d/%d entries, want %d",
			ErrInvalidState, len(s.Primary), len(s.Retired), n)
	}
	for i, c := range s.Capacity {
		if c < 0 {
			return fmt.Errorf("%w: capacity[%d] = %d is negative", ErrInvalidState, i, c)
		}
	}
	for k, p := range s.Primary {
		if p < 0 || int(p) >= m {
			return fmt.Errorf("%w: primary[%d] = %d outside [0,%d)", ErrInvalidState, k, p, m)
		}
		if s.Sizes[k] < 1 {
			return fmt.Errorf("%w: sizes[%d] = %d < 1", ErrInvalidState, k, s.Sizes[k])
		}
	}
	for i, d := range s.Demand {
		if d.Server < 0 || d.Server >= m {
			return fmt.Errorf("%w: demand[%d] server %d outside [0,%d)", ErrInvalidState, i, d.Server, m)
		}
		if d.Object < 0 || int(d.Object) >= n {
			return fmt.Errorf("%w: demand[%d] object %d outside [0,%d)", ErrInvalidState, i, d.Object, n)
		}
		if d.Reads < 0 || d.Writes < 0 {
			return fmt.Errorf("%w: demand[%d] has negative frequencies", ErrInvalidState, i)
		}
		if i > 0 {
			p := s.Demand[i-1]
			if p.Server > d.Server || (p.Server == d.Server && p.Object >= d.Object) {
				return fmt.Errorf("%w: demand[%d] (server %d, object %d) does not follow (server %d, object %d)",
					ErrInvalidState, i, d.Server, d.Object, p.Server, p.Object)
			}
		}
	}
	return nil
}

// ExportState snapshots the controller's mutable state in wire form. The
// demand rows are already sorted by object, so walking them in server order
// yields the (server, object) order directly.
func (c *Controller) ExportState() *StateSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	snap := &StateSnapshot{
		Capacity: append([]int64(nil), st.capacity...),
		Active:   append([]bool(nil), st.active...),
		Sizes:    append([]int64(nil), st.sizes...),
		Primary:  append([]int32(nil), st.primary...),
		Retired:  append([]bool(nil), st.retired...),
	}
	cells := 0
	for _, row := range st.demand {
		cells += len(row)
	}
	if cells > 0 {
		snap.Demand = make([]DemandEntry, 0, cells)
	}
	for i, row := range st.demand {
		for _, d := range row {
			snap.Demand = append(snap.Demand, DemandEntry{Server: i, Object: d.Object, Reads: d.Reads, Writes: d.Writes})
		}
	}
	return snap
}

// NewFromState builds a controller over an exported state snapshot — the
// shard daemon's entry point: the coordinator ships a masked StateSnapshot,
// the shard rebuilds its regional controller from it. The cost oracle is
// the receiver's own (both sides construct it from the shared instance
// configuration); an oracle that does not cover the snapshot's servers is
// refused with an error that wraps ErrInvalidState. Zero-demand entries are
// skipped; the validated (server, object) order makes every row sorted as
// it is built.
func NewFromState(cost replication.CostFn, snap *StateSnapshot, cfg Config) (*Controller, error) {
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	if cost.N() < len(snap.Capacity) {
		return nil, fmt.Errorf("%w: cost oracle covers %d servers, snapshot needs %d", ErrInvalidState, cost.N(), len(snap.Capacity))
	}
	st := &state{
		cost:     cost,
		capacity: append([]int64(nil), snap.Capacity...),
		active:   append([]bool(nil), snap.Active...),
		sizes:    append([]int64(nil), snap.Sizes...),
		primary:  append([]int32(nil), snap.Primary...),
		retired:  append([]bool(nil), snap.Retired...),
		demand:   make([][]workload.Demand, len(snap.Capacity)),
	}
	for _, d := range snap.Demand {
		if d.Reads == 0 && d.Writes == 0 {
			continue
		}
		st.demand[d.Server] = append(st.demand[d.Server], workload.Demand{Object: d.Object, Reads: d.Reads, Writes: d.Writes})
	}
	return newController(st, cfg)
}

// InstallSchema publishes an externally carried schema as a merge epoch:
// the coordinator installs the merged placement it carried (CarryOver plus
// the boundary exchange's refinements) on its mirror, and a shard installs
// the carry the coordinator shipped with its assignment on a controller it
// has not yet published. The schema must have been built against the
// controller's current Problem, so the caller serializes installs with
// delta application: the coordinator merges under the lock that also
// serializes every mirror delta. dropped is the carry's drop count, folded
// into the controller's accounting; the installed placement becomes the
// drift baseline, like a solve.
func (c *Controller) InstallSchema(sch *replication.Schema, dropped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.epoch.Load()
	c.publishLocked(cur, &Epoch{Problem: cur.Problem, Schema: sch, Version: cur.Version + 1, Cause: CauseMerge})
	c.carriedDrops += int64(dropped)
	c.solvedSavings = sch.Savings()
	c.drift = 0
}
