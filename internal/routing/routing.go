// Package routing is the client side of the epoch-based placement plane:
// a library that subscribes to the online controller's epoch stream —
// in-process or over the daemon's GET /epochs endpoint — keeps a local copy
// of the replica sets, and answers nearest-replica lookups with zero server
// round-trips.
//
// The replication-game literature on selfish caching assumes every client
// can evaluate its own nearest-replica access cost locally; this package is
// exactly that capability for the reproduced mechanism. A synced Client
// answers Route bit-identically to the server's Controller.Route, because
// both sides evaluate the same pure function (replication.Nearest) over the
// same replica sets and the same cost oracle — the epoch stream replicates
// the sets, the deployment shares the oracle (the daemon and its clients are
// built from the same topology).
//
// Consistency contract: a Client is eventually consistent with the
// controller, trailing it by the delivery latency of the epoch stream.
// Within one epoch its answers are exact. A client that falls behind the
// controller's bounded journal — or receives an update that does not chain
// onto its version (ErrStale) — resynchronizes with a full snapshot; Follow
// automates the resubscribe/resync loop.
package routing

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/online"
	"repro/internal/replication"
)

// ErrNotSynced is returned by Route before the client has applied its first
// snapshot or while it awaits a resync.
var ErrNotSynced = errors.New("routing: client has no placement epoch yet")

// ErrStale reports an update that does not chain onto the client's current
// version (a gap in the stream or a corrupted diff). The caller should
// resubscribe from Version(); Follow does this automatically.
var ErrStale = errors.New("routing: update does not chain onto the client's epoch")

// table is one immutable client-side placement generation: the replica sets
// of every object at one epoch version. Route loads it with a single atomic
// pointer read — the controller's RCU discipline, replicated client-side.
type table struct {
	version  uint64
	servers  int
	replicas [][]int32 // per object, sorted ascending, primary included
}

// Client is a client-side router over the epoch stream.
type Client struct {
	cost  replication.CostFn
	state atomic.Pointer[table]

	updates atomic.Int64 // diffs applied
	resyncs atomic.Int64 // snapshots applied after the first
	stales  atomic.Int64 // updates rejected as stale
}

// NewClient builds an unsynced client over the deployment's cost oracle.
// The oracle must be the same metric the controller routes with; the epoch
// stream carries replica sets only, never distances.
func NewClient(cost replication.CostFn) *Client {
	return &Client{cost: cost}
}

// Version reports the epoch version the client has applied, 0 before sync.
func (c *Client) Version() uint64 {
	if t := c.state.Load(); t != nil {
		return t.version
	}
	return 0
}

// Synced reports whether the client holds a placement epoch.
func (c *Client) Synced() bool { return c.state.Load() != nil }

// Stats reports the client's stream accounting: diffs applied, snapshot
// resyncs beyond the initial one, and updates rejected as stale.
func (c *Client) Stats() (updates, resyncs, stales int64) {
	return c.updates.Load(), c.resyncs.Load(), c.stales.Load()
}

// Route answers "which server does server i read object k from" against the
// client's local replica sets — no locks, no I/O, bit-identical to the
// controller's answer at the same epoch version.
func (c *Client) Route(server int, object int32) (int32, error) {
	t := c.state.Load()
	if t == nil {
		return 0, ErrNotSynced
	}
	if server < 0 || server >= t.servers {
		return 0, fmt.Errorf("routing: server %d outside [0,%d)", server, t.servers)
	}
	if object < 0 || int(object) >= len(t.replicas) {
		return 0, fmt.Errorf("routing: object %d outside [0,%d)", object, len(t.replicas))
	}
	return replication.Nearest(c.cost, t.replicas[object], server), nil
}

// Apply folds one stream element into the client's state. Terminal updates
// are a no-op (the caller decides to stop). Snapshots replace the state;
// diffs must chain exactly onto the current version or Apply returns
// ErrStale and leaves the state untouched. An update whose servers the cost
// oracle does not cover, or that places a replica outside its servers, is
// an error and leaves the state untouched too, so Route never indexes past
// the oracle.
func (c *Client) Apply(u *online.Update) error {
	switch {
	case u.Terminal:
		return nil
	case u.Snapshot != nil:
		if err := u.Snapshot.Validate(); err != nil {
			return err
		}
		if err := c.covers(u.Snapshot.Servers); err != nil {
			return err
		}
		if c.state.Load() != nil {
			c.resyncs.Add(1)
		}
		c.state.Store(tableFromSnapshot(u.Version, u.Snapshot))
		return nil
	case u.Diff != nil:
		cur := c.state.Load()
		if cur == nil || cur.version != u.Diff.From || u.Version != u.Diff.From+1 {
			c.stales.Add(1)
			return ErrStale
		}
		if err := c.covers(u.Diff.Servers); err != nil {
			return err
		}
		next, err := cur.applyDiff(u.Version, u.Diff)
		if err != nil {
			c.stales.Add(1)
			return errors.Join(ErrStale, err)
		}
		c.state.Store(next)
		c.updates.Add(1)
		return nil
	default:
		return fmt.Errorf("routing: update %d carries neither snapshot nor diff", u.Version)
	}
}

// covers rejects a system of more servers than the client's cost oracle
// spans.
func (c *Client) covers(servers int) error {
	if n := c.cost.N(); servers > n {
		return fmt.Errorf("routing: update spans %d servers, the cost oracle %d", servers, n)
	}
	return nil
}

func tableFromSnapshot(version uint64, ps *online.PlacementSnapshot) *table {
	t := &table{version: version, servers: ps.Servers, replicas: make([][]int32, ps.Objects)}
	for k := 0; k < ps.Objects; k++ {
		t.replicas[k] = append([]int32(nil), ps.ReplicaSet(k)...)
	}
	return t
}

// applyDiff produces the next table copy-on-write: untouched objects share
// their replica slices with the previous generation (they are immutable),
// touched objects get fresh sorted copies. Concurrent Route calls keep
// reading the old table until the atomic swap.
func (t *table) applyDiff(version uint64, d *online.Diff) (*table, error) {
	if d.Servers < t.servers {
		return nil, fmt.Errorf("routing: diff shrinks the system %d -> %d", t.servers, d.Servers)
	}
	nr := make([][]int32, len(t.replicas), len(t.replicas)+len(d.NewObjects))
	copy(nr, t.replicas)
	for _, om := range d.NewObjects {
		if int(om.Object) != len(nr) {
			return nil, fmt.Errorf("routing: new object %d out of order (have %d objects)", om.Object, len(nr))
		}
		if om.Primary < 0 || int(om.Primary) >= d.Servers {
			return nil, fmt.Errorf("routing: new object %d has primary %d outside [0,%d)", om.Object, om.Primary, d.Servers)
		}
		nr = append(nr, []int32{om.Primary})
	}
	touched := make(map[int32]bool, len(d.Place)+len(d.Remove))
	mutable := func(k int32) ([]int32, error) {
		if k < 0 || int(k) >= len(nr) {
			return nil, fmt.Errorf("routing: diff references object %d outside [0,%d)", k, len(nr))
		}
		if !touched[k] {
			nr[k] = append([]int32(nil), nr[k]...)
			touched[k] = true
		}
		return nr[k], nil
	}
	for _, ref := range d.Remove {
		r, err := mutable(ref.Object)
		if err != nil {
			return nil, err
		}
		idx := searchInt32(r, ref.Server)
		if idx == len(r) || r[idx] != ref.Server {
			return nil, fmt.Errorf("routing: diff removes absent replica (%d on %d)", ref.Object, ref.Server)
		}
		nr[ref.Object] = append(r[:idx], r[idx+1:]...)
	}
	for _, ref := range d.Place {
		if ref.Server < 0 || int(ref.Server) >= d.Servers {
			return nil, fmt.Errorf("routing: diff places object %d on server %d outside [0,%d)", ref.Object, ref.Server, d.Servers)
		}
		r, err := mutable(ref.Object)
		if err != nil {
			return nil, err
		}
		idx := searchInt32(r, ref.Server)
		if idx < len(r) && r[idx] == ref.Server {
			return nil, fmt.Errorf("routing: diff places duplicate replica (%d on %d)", ref.Object, ref.Server)
		}
		r = append(r, 0)
		copy(r[idx+1:], r[idx:])
		r[idx] = ref.Server
		nr[ref.Object] = r
	}
	for k := range touched {
		if len(nr[k]) == 0 {
			return nil, fmt.Errorf("routing: diff leaves object %d with no replicas", k)
		}
	}
	return &table{version: version, servers: d.Servers, replicas: nr}, nil
}

// searchInt32 is sort.SearchInt32s for the replica slices.
func searchInt32(r []int32, x int32) int {
	lo, hi := 0, len(r)
	for lo < hi {
		mid := (lo + hi) / 2
		if r[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// WaitVersion blocks until the client has applied version v or later, the
// context ends, or the deadline d elapses (d <= 0 means context-only).
// Tests and replay harnesses use it to line clients up with the controller
// before comparing answers.
func (c *Client) WaitVersion(ctx context.Context, v uint64, d time.Duration) error {
	var deadline <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		deadline = t.C
	}
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	for {
		if c.Version() >= v {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-deadline:
			return fmt.Errorf("routing: client stuck at version %d waiting for %d", c.Version(), v)
		case <-tick.C:
		}
	}
}
