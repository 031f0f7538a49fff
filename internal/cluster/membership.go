package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// PeerState is a peer's health as seen by this member.
type PeerState int

// Alive → Suspect (first failed probe) → Dead (DeathThreshold consecutive
// failures); any successful probe returns the peer to Alive.
const (
	Alive PeerState = iota
	Suspect
	Dead
)

// String names the state.
func (s PeerState) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("PeerState(%d)", int(s))
	}
}

// Peer is one statically seeded cluster member.
type Peer struct {
	ID   int    `json:"id"`
	Addr string `json:"addr"`
}

// PeerStatus is a point-in-time health snapshot of one peer.
type PeerStatus struct {
	Peer
	State PeerState `json:"state"`
	// Fails is the current consecutive-failure streak.
	Fails int `json:"fails"`
	// Probes counts probe attempts since construction.
	Probes int64 `json:"probes"`
}

// MembershipConfig tunes the prober.
type MembershipConfig struct {
	// Codec is the RPC codec shared with the probed endpoints.
	Codec Codec
	// ProbeTimeout bounds one ping exchange (default 500ms).
	ProbeTimeout time.Duration
	// DeathThreshold is the consecutive-failure count that declares a peer
	// Dead (default 2; below that it is Suspect).
	DeathThreshold int
	// Dial builds the dialer for one peer — the seam the fault matrix
	// injects faultnet schedules through. Nil means plain TCP for all.
	Dial func(peer Peer) DialFunc
	// OnChange, when set, fires after a probe round for every peer whose
	// state changed, outside the membership lock.
	OnChange func(peer Peer, from, to PeerState)
}

// Membership probes a static seed list and tracks per-peer health. It is the
// failure detector both cluster roles run: the coordinator probes its shards
// (a Dead shard is evicted and its region re-assigned), each shard probes
// the coordinator (a Dead coordinator flips the shard to autonomous mode).
type Membership struct {
	cfg     MembershipConfig
	ids     []int // peer ids in seed order
	clients map[int]*Client

	mu     sync.Mutex
	status map[int]*PeerStatus

	loopWG     sync.WaitGroup
	loopCancel context.CancelFunc
}

// NewMembership builds the prober over a static peer list. Peers start
// Alive: the cluster forms optimistically and the probes demote whoever
// fails to answer.
func NewMembership(peers []Peer, cfg MembershipConfig) *Membership {
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	if cfg.DeathThreshold <= 0 {
		cfg.DeathThreshold = 2
	}
	m := &Membership{
		cfg:     cfg,
		clients: make(map[int]*Client, len(peers)),
		status:  make(map[int]*PeerStatus, len(peers)),
	}
	for _, p := range peers {
		var dial DialFunc
		if cfg.Dial != nil {
			dial = cfg.Dial(p)
		}
		m.ids = append(m.ids, p.ID)
		m.clients[p.ID] = NewClient(p.Addr, cfg.Codec, dial)
		m.status[p.ID] = &PeerStatus{Peer: p, State: Alive}
	}
	return m
}

// Client returns the RPC client for a peer (shared with the prober; calls
// are serialized per client).
func (m *Membership) Client(id int) *Client { return m.clients[id] }

// fanOut calls method on every peer in ids concurrently, each call bounded
// by timeout, and returns once every call has returned. req builds the i-th
// request inside its goroutine, so costly requests are built in parallel
// too. Replies and errors come back in ids order, whatever order the
// answers arrived in.
func fanOut[Rep any](ctx context.Context, m *Membership, ids []int, timeout time.Duration, method string, req func(i int) any) ([]Rep, []error) {
	reps := make([]Rep, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			errs[i] = c.Call(cctx, method, req(i), &reps[i])
		}(i, m.clients[id])
	}
	wg.Wait()
	return reps, errs
}

// ProbeOnce runs one probe round — every peer pinged concurrently, each
// bounded by ProbeTimeout — and returns when the round completes. Tests call
// it directly to step the failure detector deterministically; Start wraps it
// in a timer loop for the daemons.
func (m *Membership) ProbeOnce(ctx context.Context) {
	_, errs := fanOut[PingReply](ctx, m, m.ids, m.cfg.ProbeTimeout, MethodPing, func(int) any { return &PingRequest{} })
	var changes []stateChange
	m.mu.Lock()
	for i, id := range m.ids {
		m.status[id].Probes++
		changes = m.transition(changes, id, errs[i] == nil)
	}
	m.mu.Unlock()
	m.notify(changes)
}

// ping is the MethodPing handler every daemon registers: the reply arriving
// is the answer ProbeOnce reads.
func ping(context.Context, *PingRequest) (any, error) { return &PingReply{}, nil }

// ReportFailure feeds an out-of-band RPC failure (a delta forward or solve
// call that died) into the failure detector, so the next decision does not
// wait for a probe round to notice.
func (m *Membership) ReportFailure(id int) {
	m.mu.Lock()
	changes := m.transition(nil, id, false)
	m.mu.Unlock()
	m.notify(changes)
}

// stateChange is one peer's state transition, reported to OnChange.
type stateChange struct {
	peer     Peer
	from, to PeerState
}

// transition applies one call outcome to a peer, under mu: a success returns
// it to Alive, a failure lengthens its streak — Suspect, then Dead at
// DeathThreshold. A state that moved is appended to changes.
func (m *Membership) transition(changes []stateChange, id int, ok bool) []stateChange {
	st, known := m.status[id]
	if !known {
		return changes
	}
	from := st.State
	if ok {
		st.Fails = 0
		st.State = Alive
	} else {
		st.Fails++
		st.State = Suspect
		if st.Fails >= m.cfg.DeathThreshold {
			st.State = Dead
		}
	}
	if st.State != from {
		changes = append(changes, stateChange{peer: st.Peer, from: from, to: st.State})
	}
	return changes
}

// notify fires OnChange for each change, outside the membership lock.
func (m *Membership) notify(changes []stateChange) {
	if m.cfg.OnChange == nil {
		return
	}
	for _, c := range changes {
		m.cfg.OnChange(c.peer, c.from, c.to)
	}
}

// State returns one peer's current state (Dead for unknown ids).
func (m *Membership) State(id int) PeerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.status[id]; ok {
		return st.State
	}
	return Dead
}

// Alive lists the ids of non-Dead peers, ascending. Suspect peers count as
// alive: one missed probe must not re-partition the cluster.
func (m *Membership) Alive() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]int, 0, len(m.status))
	for id, st := range m.status {
		if st.State != Dead {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// Snapshot lists every peer's status, ascending by id.
func (m *Membership) Snapshot() []PeerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PeerStatus, 0, len(m.status))
	for _, st := range m.status {
		out = append(out, *st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Start runs ProbeOnce every interval until the context ends or Close is
// called.
func (m *Membership) Start(ctx context.Context, interval time.Duration) {
	ctx, cancel := context.WithCancel(ctx)
	m.loopCancel = cancel
	m.loopWG.Add(1)
	go func() {
		defer m.loopWG.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				m.ProbeOnce(ctx)
			}
		}
	}()
}

// Close stops the probe loop and closes every peer client.
func (m *Membership) Close() {
	if m.loopCancel != nil {
		m.loopCancel()
	}
	m.loopWG.Wait()
	for _, c := range m.clients {
		c.Close()
	}
}
