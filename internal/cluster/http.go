package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/online"
	"repro/internal/server"
)

// ShardInfo is one shard's row in the coordinator's cluster status.
type ShardInfo struct {
	ID    int    `json:"id"`
	Addr  string `json:"addr"`
	State string `json:"state"`
	// Assign, Mode, Members and Metrics come from the shard's metrics RPC;
	// Error carries the RPC failure when the pull did not land.
	Assign  uint64 `json:"assign,omitempty"`
	Mode    string `json:"mode,omitempty"`
	Members int    `json:"members,omitempty"`
	// RegionServers × RegionObjects is the compacted sub-instance shape the
	// shard actually solves (M'×N').
	RegionServers int             `json:"region_servers,omitempty"`
	RegionObjects int             `json:"region_objects,omitempty"`
	Metrics       *online.Metrics `json:"metrics,omitempty"`
	Error         string          `json:"error,omitempty"`
}

// ClusterStatus is the GET /cluster payload: the coordinator's aggregated
// view (membership, assignment, delegate-game accounting, per-shard
// metrics), or a shard's local view of itself.
type ClusterStatus struct {
	Role          string `json:"role"`
	AssignVersion uint64 `json:"assign_version"`
	EpochVersion  uint64 `json:"epoch_version"`
	// Shard-side fields.
	Shard int    `json:"shard,omitempty"`
	Mode  string `json:"mode,omitempty"`
	// Coordinator-side aggregation.
	Merges           int64         `json:"merges,omitempty"`
	Repartitions     int64         `json:"repartitions,omitempty"`
	TopDecisions     int64         `json:"top_decisions,omitempty"`
	LastWinner       int           `json:"last_winner"`
	DelegatePayments map[int]int64 `json:"delegate_payments,omitempty"`
	ForwardErrors    int64         `json:"forward_errors,omitempty"`
	LastError        string        `json:"last_error,omitempty"`
	Shards           []ShardInfo   `json:"shards,omitempty"`
	Payments         []int64       `json:"payments,omitempty"`
}

// Status aggregates the cluster view: membership states locally, per-shard
// metrics over RPC (bounded by ForwardTimeout; a failed pull is a forward
// error like any other and reports the error in the shard's row instead of
// failing the whole status).
func (co *Coordinator) Status(ctx context.Context) ClusterStatus {
	peers := co.membership.Snapshot()
	rows := make([]ShardInfo, len(peers))
	var ids, at []int // the non-Dead peers, and their rows
	for i, p := range peers {
		rows[i] = ShardInfo{ID: p.ID, Addr: p.Addr, State: p.State.String()}
		if p.State != Dead {
			ids = append(ids, p.ID)
			at = append(at, i)
		}
	}
	reps, errs := forward[MetricsReply](ctx, co, ids, MethodMetrics, func(int) any { return &MetricsRequest{} })
	for j, i := range at {
		if errs[j] != nil {
			rows[i].Error = errs[j].Error()
			continue
		}
		rep := &reps[j]
		rows[i].Assign = rep.Assign
		rows[i].Mode = rep.Mode
		rows[i].Members = len(rep.Members)
		rows[i].RegionServers = rep.RegionServers
		rows[i].RegionObjects = rep.RegionObjects
		rows[i].Metrics = &rep.Metrics
	}

	co.mu.Lock()
	st := ClusterStatus{
		Role:             "coordinator",
		AssignVersion:    co.assignVer,
		Merges:           co.phase.Merges,
		Repartitions:     co.phase.Assigns,
		TopDecisions:     co.topDecisions,
		LastWinner:       co.lastWinner,
		ForwardErrors:    co.forwardErrors,
		LastError:        co.lastErr,
		DelegatePayments: make(map[int]int64, len(co.delegatePayments)),
		Payments:         append([]int64(nil), co.lastPayments...),
		Shards:           rows,
	}
	for id, p := range co.delegatePayments {
		st.DelegatePayments[id] = p
	}
	co.mu.Unlock()
	st.EpochVersion = co.mirror.Current().Version
	return st
}

// HTTPHandler serves GET /cluster on the coordinator's API server (wire it
// with server.Extend).
func (co *Coordinator) HTTPHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
		defer cancel()
		writeStatus(w, co.Status(ctx))
	}
}

// Status reports the shard's local cluster view.
func (s *Shard) Status() ClusterStatus {
	s.mu.Lock()
	st := ClusterStatus{
		Role:          "shard",
		Shard:         s.id,
		AssignVersion: s.assignVer,
		Mode:          s.mode.String(),
		LastWinner:    -1,
	}
	ctrl := s.ctrl
	s.mu.Unlock()
	if ctrl != nil {
		st.EpochVersion = ctrl.Current().Version
	}
	if s.coord != nil {
		for _, p := range s.coord.Snapshot() {
			st.Shards = append(st.Shards, ShardInfo{ID: -1, Addr: p.Addr, State: p.State.String()})
		}
	}
	return st
}

// HTTPHandler serves GET /cluster on the shard's API server.
func (s *Shard) HTTPHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		writeStatus(w, s.Status())
	}
}

func writeStatus(w http.ResponseWriter, st ClusterStatus) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

// Backend adapts the shard to the HTTP facade: the shard daemon serves the
// same endpoint set as the single daemon, answered from its regional
// controller. Requests use global ids and are translated through the
// assignment's index mapping; the epoch stream (Current/Subscribe) is the
// regional controller's and therefore in region-local coordinates — for a
// 1-shard cluster the mapping is the identity, so epoch clients see exactly
// the single daemon's stream. Deltas posted directly to a shard pass the
// same ownership guard as forwarded ones (add-object is coordinator-only:
// global object ids are allocated by the mirror); solves run the regional
// game. The daemon waits for the first assignment (WaitAssigned) before
// serving HTTP, so the controller is always live here.
func (s *Shard) Backend() server.Backend { return shardBackend{s} }

type shardBackend struct{ s *Shard }

func (b shardBackend) Current() *online.Epoch { return b.s.controller().Current() }

func (b shardBackend) Route(server int, object int32) (int32, error) {
	return b.s.routeGlobal(server, object)
}

func (b shardBackend) ApplyDeltas(ds []online.Delta) (online.Applied, error) {
	return b.s.applyGuarded(0, ds)
}

func (b shardBackend) SolveNow(ctx context.Context) error {
	_, err := b.s.SolveNow(ctx)
	return err
}

func (b shardBackend) Metrics() online.Metrics {
	ctrl := b.s.controller()
	if ctrl == nil {
		return online.Metrics{}
	}
	return ctrl.Metrics()
}

func (b shardBackend) Subscribe(since uint64, buf int) *online.Subscription {
	return b.s.controller().Subscribe(since, buf)
}

func (b shardBackend) Unsubscribe(sub *online.Subscription) {
	if ctrl := b.s.controller(); ctrl != nil {
		ctrl.Unsubscribe(sub)
	}
}

func (b shardBackend) DrainSubscribers() {
	if ctrl := b.s.controller(); ctrl != nil {
		ctrl.DrainSubscribers()
	}
}

// WaitAssigned blocks until the shard holds an assignment (or ctx ends) —
// the daemon's gate before serving HTTP from the regional controller.
func (s *Shard) WaitAssigned(ctx context.Context) error {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.controller() != nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}
