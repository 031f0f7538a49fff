package online

import (
	"fmt"

	"repro/internal/replication"
)

// Cause labels why an epoch was published.
type Cause string

// The epoch causes. CauseShutdown never labels an epoch; it only appears on
// the terminal Update a draining controller sends to its subscribers.
const (
	CauseInit     Cause = "init"
	CauseDeltas   Cause = "deltas"
	CauseSolve    Cause = "solve"
	CauseRestore  Cause = "restore"
	CauseMerge    Cause = "merge"
	CauseShutdown Cause = "shutdown"
)

// Epoch is one immutable (instance, placement) generation of the controller.
// Readers load it with a single atomic pointer read; writers build a fresh
// Epoch and publish it — nothing reachable from a published Epoch is ever
// mutated. Beyond the served state it carries its provenance — the version
// and the cause — so the journal can replay the placement's history to
// subscribers. The stream carries placement outcomes only, which is all
// routing consumes, so a deltas epoch does not keep its delta batch.
type Epoch struct {
	Problem *replication.Problem
	Schema  *replication.Schema
	// Version increments by exactly one on every publish (delta batch,
	// solve, restore) — the subscription protocol's gapless sequence.
	Version uint64
	// Cause reports what published this epoch.
	Cause Cause
}

// Route answers "which server does server i read object k from" against this
// epoch's placement, via the canonical replication.Nearest rule. It never
// allocates on the happy path; batch callers route every pair against one
// epoch so a concurrent swap cannot tear the batch.
func (e *Epoch) Route(server int, object int32) (int32, error) {
	if server < 0 || server >= e.Problem.M {
		return 0, fmt.Errorf("online: server %d outside [0,%d)", server, e.Problem.M)
	}
	if object < 0 || int(object) >= e.Problem.N {
		return 0, fmt.Errorf("online: object %d outside [0,%d)", object, e.Problem.N)
	}
	return replication.Nearest(e.Problem.Cost, e.Schema.Replicas(object), server), nil
}

// ReplicaRef names one (object, server) placement cell on the wire.
type ReplicaRef struct {
	Object int32 `json:"k"`
	Server int32 `json:"s"`
}

// ObjectMeta describes an object appended to the catalogue mid-stream.
type ObjectMeta struct {
	Object  int32 `json:"object"`
	Primary int32 `json:"primary"`
	Size    int64 `json:"size"`
}

// PlacementSnapshot is the compact wire form of a full placement: the
// per-object replica sets (each sorted ascending, primary included)
// flattened into one array with an offsets table — two int slices instead of
// N nested ones, cheap to encode and to rebuild a routing table from.
type PlacementSnapshot struct {
	Servers  int      `json:"servers"`
	Objects  int      `json:"objects"`
	Offsets  []uint32 `json:"offsets"`  // len Objects+1; object k's replicas are Replicas[Offsets[k]:Offsets[k+1]]
	Replicas []int32  `json:"replicas"` // sorted server ids per object
}

// ReplicaSet returns object k's replica slice inside the snapshot.
func (ps *PlacementSnapshot) ReplicaSet(k int) []int32 {
	return ps.Replicas[ps.Offsets[k]:ps.Offsets[k+1]]
}

// Validate checks the snapshot's internal consistency.
func (ps *PlacementSnapshot) Validate() error {
	if ps.Servers < 1 || ps.Objects < 0 {
		return fmt.Errorf("online: snapshot shape %dx%d invalid", ps.Servers, ps.Objects)
	}
	if len(ps.Offsets) != ps.Objects+1 || ps.Offsets[0] != 0 {
		return fmt.Errorf("online: snapshot offsets malformed")
	}
	for k := 0; k < ps.Objects; k++ {
		lo, hi := ps.Offsets[k], ps.Offsets[k+1]
		if lo > hi || int(hi) > len(ps.Replicas) {
			return fmt.Errorf("online: snapshot offsets not monotone at object %d", k)
		}
		if lo == hi {
			return fmt.Errorf("online: object %d has no replicas in snapshot", k)
		}
		for i := lo + 1; i < hi; i++ {
			if ps.Replicas[i-1] >= ps.Replicas[i] {
				return fmt.Errorf("online: object %d replica set unsorted in snapshot", k)
			}
		}
		// Sorted, so the ends bound the set.
		if first, last := ps.Replicas[lo], ps.Replicas[hi-1]; first < 0 || int(last) >= ps.Servers {
			return fmt.Errorf("online: object %d has a replica outside servers [0,%d) in snapshot", k, ps.Servers)
		}
	}
	if int(ps.Offsets[ps.Objects]) != len(ps.Replicas) {
		return fmt.Errorf("online: snapshot replica array length %d != final offset %d",
			len(ps.Replicas), ps.Offsets[ps.Objects])
	}
	return nil
}

// Diff is the placement change between two consecutive epochs, in the form a
// routing table applies locally: servers joined the system, objects were
// appended, replicas were placed or removed. Primaries never move for
// existing objects, so object metadata is only carried for new arrivals.
type Diff struct {
	// From is the version this diff applies on top of (always Version-1 of
	// the enclosing Update); clients on any other version must resync.
	From uint64 `json:"from"`
	// Servers is the system size M after this epoch (M only grows).
	Servers int `json:"servers"`
	// NewObjects are catalogue appends, in id order starting at the previous
	// epoch's object count; each starts as primary-only before Place applies.
	NewObjects []ObjectMeta `json:"new_objects,omitempty"`
	// Place and Remove are the replica-set changes, each sorted by
	// (object, server) for deterministic application.
	Place  []ReplicaRef `json:"place,omitempty"`
	Remove []ReplicaRef `json:"remove,omitempty"`
}

// Update is one element of the epoch stream. Exactly one of Snapshot or Diff
// is set, except on a terminal update (a draining controller's goodbye),
// which carries neither.
type Update struct {
	Version uint64 `json:"version"`
	Cause   Cause  `json:"cause"`
	// Snapshot is the full placement at Version; sent when the subscriber's
	// version is too old for the journal (or unknown).
	Snapshot *PlacementSnapshot `json:"snapshot,omitempty"`
	// Diff is the incremental change from Version-1 to Version.
	Diff *Diff `json:"diff,omitempty"`
	// Terminal marks the stream's end: the controller is draining.
	Terminal bool `json:"terminal,omitempty"`
}

// snapshotOf flattens a schema's replica sets into the wire form.
func snapshotOf(e *Epoch) *PlacementSnapshot {
	p, s := e.Problem, e.Schema
	ps := &PlacementSnapshot{
		Servers: p.M,
		Objects: p.N,
		Offsets: make([]uint32, p.N+1),
	}
	total := 0
	for k := 0; k < p.N; k++ {
		total += len(s.Replicas(int32(k)))
	}
	ps.Replicas = make([]int32, 0, total)
	for k := 0; k < p.N; k++ {
		ps.Offsets[k] = uint32(len(ps.Replicas))
		ps.Replicas = append(ps.Replicas, s.Replicas(int32(k))...)
	}
	ps.Offsets[p.N] = uint32(len(ps.Replicas))
	return ps
}

// SnapshotUpdate renders the epoch as a full-snapshot stream element.
func (e *Epoch) SnapshotUpdate() *Update {
	return &Update{Version: e.Version, Cause: e.Cause, Snapshot: snapshotOf(e)}
}

// diffEpochs computes the placement diff from prev to next. Replica lists on
// both sides are sorted, so each object diffs with one two-pointer merge;
// objects beyond prev's catalogue diff against their implicit primary-only
// initial set.
func diffEpochs(prev, next *Epoch) *Diff {
	d := &Diff{From: prev.Version, Servers: next.Problem.M}
	for k := prev.Problem.N; k < next.Problem.N; k++ {
		d.NewObjects = append(d.NewObjects, ObjectMeta{
			Object:  int32(k),
			Primary: next.Problem.Work.Primary[k],
			Size:    next.Problem.Work.ObjectSize[k],
		})
	}
	var primaryOnly [1]int32
	for k := 0; k < next.Problem.N; k++ {
		var old []int32
		if k < prev.Problem.N {
			old = prev.Schema.Replicas(int32(k))
		} else {
			primaryOnly[0] = next.Problem.Work.Primary[k]
			old = primaryOnly[:]
		}
		cur := next.Schema.Replicas(int32(k))
		i, j := 0, 0
		for i < len(old) || j < len(cur) {
			switch {
			case j == len(cur) || (i < len(old) && old[i] < cur[j]):
				d.Remove = append(d.Remove, ReplicaRef{Object: int32(k), Server: old[i]})
				i++
			case i == len(old) || cur[j] < old[i]:
				d.Place = append(d.Place, ReplicaRef{Object: int32(k), Server: cur[j]})
				j++
			default: // equal: replica unchanged
				i++
				j++
			}
		}
	}
	return d
}
