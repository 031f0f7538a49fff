package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/online"
	"repro/internal/replication"
)

// ShardConfig tunes one shard daemon.
type ShardConfig struct {
	// Codec is the RPC codec (must match the coordinator's).
	Codec Codec
	// Controller configures the regional online controller rebuilt on every
	// assignment: method, engine, seed, drift threshold, Glauber sweeps —
	// the same vocabulary as the single daemon. Its SolveDebounce spaces the
	// autonomous self-solves.
	Controller online.Config
	// Coordinator is the coordinator's RPC address. Empty runs the shard
	// standalone-autonomous from the start (no probes, no degradation
	// switch — there is nothing to degrade from).
	Coordinator string
	// ProbeTimeout and DeathThreshold tune the coordinator failure
	// detector (Membership defaults apply).
	ProbeTimeout   time.Duration
	DeathThreshold int
	// Dial overrides the dialer toward the coordinator (fault injection).
	Dial func(peer Peer) DialFunc
}

// Shard runs one regional AGT-RAM game: an online controller over the
// masked region the coordinator assigned, exposed over the RPC endpoint.
// The region keeps the mirror's ids and the controller reads the shared
// cost oracle directly, so RPC requests and replies, the HTTP API and the
// epoch stream all speak the coordinator's ids. In hierarchical mode the
// coordinator decides when to solve; when the coordinator stops answering
// probes the shard degrades to autonomous mode
// — the paper's failure story — and re-solves itself on drift, exactly like
// a single daemon, until the coordinator comes back and re-assigns.
type Shard struct {
	id   int
	cost replication.CostFn
	cfg  ShardConfig
	ep   *Endpoint

	mu        sync.Mutex
	ctrl      *online.Controller
	region    *online.Region // immutable; the pointer is swapped with ctrl under mu
	assignVer uint64
	mode      hierarchy.Mode
	closed    bool

	coord *Membership // probes the coordinator; nil when standalone

	solveKick  chan struct{}
	loopCancel context.CancelFunc
	wg         sync.WaitGroup
}

// ErrUnassigned reports shard operations before the first assignment.
var ErrUnassigned = errors.New("cluster: shard has no assignment yet")

// NewShard builds a shard over the instance's cost oracle (both sides of
// the cluster construct the oracle from the shared instance configuration;
// only runtime state crosses the wire). Call Serve to accept RPCs and Start
// to run the coordinator failure detector.
func NewShard(id int, cost replication.CostFn, cfg ShardConfig) *Shard {
	s := &Shard{
		id:        id,
		cost:      cost,
		cfg:       cfg,
		ep:        NewEndpoint(cfg.Codec),
		mode:      hierarchy.Hierarchical,
		solveKick: make(chan struct{}, 1),
	}
	if cfg.Coordinator == "" {
		s.mode = hierarchy.Autonomous
	} else {
		s.coord = NewMembership([]Peer{{ID: id, Addr: cfg.Coordinator}}, MembershipConfig{
			Codec:          cfg.Codec,
			ProbeTimeout:   cfg.ProbeTimeout,
			DeathThreshold: cfg.DeathThreshold,
			Dial:           cfg.Dial,
			OnChange: func(_ Peer, _, to PeerState) {
				switch to {
				case Dead:
					s.setMode(hierarchy.Autonomous)
				case Alive:
					s.setMode(hierarchy.Hierarchical)
				}
			},
		})
	}
	HandleFunc(s.ep, MethodPing, ping)
	HandleFunc(s.ep, MethodAssign, s.handleAssign)
	HandleFunc(s.ep, MethodDeltas, s.handleDeltas)
	HandleFunc(s.ep, MethodSolve, s.handleSolve)
	HandleFunc(s.ep, MethodMetrics, s.handleMetrics)
	return s
}

// ID returns the shard id.
func (s *Shard) ID() int { return s.id }

// Serve starts accepting RPCs on lis.
func (s *Shard) Serve(lis net.Listener) { s.ep.Serve(lis) }

// Addr returns the RPC listen address.
func (s *Shard) Addr() string { return s.ep.Addr() }

// Start launches the background loops: the coordinator failure detector
// (when configured) and the autonomous self-solve worker, debounced like the
// single daemon's.
func (s *Shard) Start(ctx context.Context, probeInterval time.Duration) {
	ctx, cancel := context.WithCancel(ctx)
	s.loopCancel = cancel
	if s.coord != nil {
		s.coord.Start(ctx, probeInterval)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		online.SolveLoop(ctx, s.solveKick, s.cfg.Controller.SolveDebounce, func(ctx context.Context) {
			_ = s.SolveNow(ctx) // a failed self-solve leaves the region's placement as it was
		})
	}()
}

// ProbeCoordinator runs one probe round against the coordinator — the
// deterministic test hook for the degradation switch. No-op when standalone.
func (s *Shard) ProbeCoordinator(ctx context.Context) {
	if s.coord != nil {
		s.coord.ProbeOnce(ctx)
	}
}

// Mode reports the shard's current coordination mode.
func (s *Shard) Mode() hierarchy.Mode {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mode
}

func (s *Shard) setMode(m hierarchy.Mode) {
	s.mu.Lock()
	s.mode = m
	s.mu.Unlock()
}

// AssignVersion reports the assignment generation the shard runs (0 before
// the first assignment).
func (s *Shard) AssignVersion() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.assignVer
}

// controller returns the live regional controller, or nil before the first
// assignment.
func (s *Shard) controller() *online.Controller {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl
}

// ErrStaleAssign reports an assignment whose generation does not advance
// the one the shard runs.
var ErrStaleAssign = errors.New("cluster: stale assignment")

// handleAssign installs a new region: a fresh controller over the masked
// region (NewFromRegion refuses a malformed one), the shipped carry carried
// onto it and installed before the controller is published. Stale
// generations (version at or below the current one) are rejected so a
// delayed re-send cannot roll the shard back. A refused assignment leaves
// the previous one in place.
func (s *Shard) handleAssign(ctx context.Context, req *AssignRequest) (any, error) {
	ctrl, err := online.NewFromRegion(s.cost, req.Region, s.cfg.Controller)
	if err != nil {
		return nil, fmt.Errorf("rebuild controller: %w", err)
	}
	if req.Carry != nil {
		ctrl.InstallSchema(ctrl.Current().Problem.CarryOver(req.Carry))
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ctrl.Close()
		return nil, errClosed
	}
	if req.Version <= s.assignVer {
		cur := s.assignVer
		s.mu.Unlock()
		ctrl.Close()
		return nil, fmt.Errorf("%w: generation %d (running %d)", ErrStaleAssign, req.Version, cur)
	}
	old := s.ctrl
	s.ctrl = ctrl
	s.region = req.Region
	s.assignVer = req.Version
	s.mu.Unlock()
	if old != nil {
		// Drains the old controller's epoch subscribers; HTTP streamers get a
		// terminal update and resubscribe against the new controller.
		old.Close()
	}
	return &AssignReply{}, nil
}

// applyGuarded is the shared delta path for the RPC handler and the HTTP
// backend. The guards (generation, kind, ownership) run first, then the
// batch is applied as it came: the region speaks the coordinator's ids.
// Demand must name a member server. Server-join and server-leave of a
// member and remove-object come only from the coordinator (assign ≠ 0),
// which forwards a membership delta to the region that owns the server and
// a remove-object to every region, so its mirror retires the object too.
// Add-object never reaches a shard: global object ids are allocated by the
// coordinator's mirror, which re-assigns to grow the catalogue.
func (s *Shard) applyGuarded(assign uint64, ds []online.Delta) (online.Applied, error) {
	s.mu.Lock()
	ctrl, region, ver, mode := s.ctrl, s.region, s.assignVer, s.mode
	s.mu.Unlock()
	if ctrl == nil {
		return online.Applied{}, ErrUnassigned
	}
	if assign != 0 && assign != ver {
		return online.Applied{}, fmt.Errorf("cluster: delta batch for assignment %d, shard runs %d", assign, ver)
	}
	for i, d := range ds {
		switch d.Kind {
		case online.KindAddObject:
			return online.Applied{}, fmt.Errorf("cluster: delta %d: object ids are allocated by the coordinator; add-object goes through it", i)
		case online.KindServerJoin, online.KindServerLeave, online.KindRemoveObject:
			if assign == 0 {
				return online.Applied{}, fmt.Errorf("cluster: delta %d: %s deltas go through the coordinator", i, d.Kind)
			}
		}
		if d.Kind != online.KindRemoveObject && !region.IsMember(d.Server) {
			return online.Applied{}, fmt.Errorf("cluster: delta %d: server %d is not a member of shard %d", i, d.Server, s.id)
		}
	}
	a, err := ctrl.ApplyDeltas(ds)
	if err == nil && a.SolveScheduled && mode == hierarchy.Autonomous {
		// Degraded: nobody will call solve for us. Kick the self-solve
		// loop, like the single daemon's drift loop.
		online.Kick(s.solveKick)
	}
	return a, err
}

func (s *Shard) handleDeltas(ctx context.Context, req *DeltasRequest) (any, error) {
	if _, err := s.applyGuarded(req.Assign, req.Deltas); err != nil {
		return nil, err
	}
	return &DeltasReply{}, nil
}

// SolveNow runs the regional game synchronously: the autonomous self-solve
// and a POST /solve sent to the shard itself.
func (s *Shard) SolveNow(ctx context.Context) error {
	ctrl := s.controller()
	if ctrl == nil {
		return ErrUnassigned
	}
	return ctrl.SolveNow(ctx)
}

// handleSolve runs the regional game for the coordinator and answers with
// the region's outcome — border ads (the placement's surplus replicas) and
// payments — under the assignment generation it ran. ElapsedNs times the
// solve alone, not the reply building.
func (s *Shard) handleSolve(ctx context.Context, req *SolveRequest) (any, error) {
	s.mu.Lock()
	ctrl, ver := s.ctrl, s.assignVer
	s.mu.Unlock()
	if ctrl == nil {
		return nil, ErrUnassigned
	}
	start := time.Now()
	if err := ctrl.SolveNow(ctx); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	return &SolveReply{
		Assign:    ver,
		Border:    borderAds(ctrl.Current().Schema),
		Payments:  ctrl.LastSolvePayments(),
		ElapsedNs: elapsed.Nanoseconds(),
	}, nil
}

// borderAds advertises every surplus replica the regional game placed, in
// (object, server) order, with its reserve price: the regional OTC increase
// its removal would cause. The ads are the region's placement for the
// merge's union, and its boundary exchange re-judges each ad against the
// merged global placement — a replica whose demand is served cheaper by
// another region's copy prices below zero there and is dropped.
func borderAds(sch *replication.Schema) []BorderAd {
	p := sch.Problem()
	var ads []BorderAd
	for k := int32(0); int(k) < p.N; k++ {
		primary := p.Work.Primary[k]
		for _, m := range sch.Replicas(k) {
			if m == primary {
				continue
			}
			ads = append(ads, BorderAd{Object: k, Server: m, Gain: sch.DeltaIfRemoved(k, int(m))})
		}
	}
	return ads
}

func (s *Shard) handleMetrics(ctx context.Context, req *MetricsRequest) (any, error) {
	s.mu.Lock()
	ctrl, region, ver, mode := s.ctrl, s.region, s.assignVer, s.mode
	s.mu.Unlock()
	if ctrl == nil {
		return nil, ErrUnassigned
	}
	return &MetricsReply{
		Assign: ver, Mode: mode.String(),
		Members: len(region.Members),
		Metrics: ctrl.Metrics(),
	}, nil
}

// Close tears the shard down: RPC endpoint first (no new work), then the
// background loops, then the regional controller.
func (s *Shard) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ctrl := s.ctrl
	s.mu.Unlock()
	s.ep.Close()
	if s.loopCancel != nil {
		s.loopCancel()
	}
	s.wg.Wait()
	if s.coord != nil {
		s.coord.Close()
	}
	if ctrl != nil {
		ctrl.Close()
	}
}
