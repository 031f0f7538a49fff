package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/mechanism"
	"repro/internal/online"
	"repro/internal/replication"
)

// CoordinatorConfig tunes the coordinator.
type CoordinatorConfig struct {
	// Codec is the RPC codec (must match the shards').
	Codec Codec
	// Controller configures the global mirror and sets the cluster-wide
	// drift semantics: DriftThreshold/SolveDebounce decide when the
	// coordinator fans a solve out to the shards, exactly like the single
	// daemon's auto-solve. The mirror itself never runs a solver.
	Controller online.Config
	// ProbeTimeout and DeathThreshold tune the shard failure detector.
	ProbeTimeout   time.Duration
	DeathThreshold int
	// ForwardTimeout bounds every forwarded RPC (assign, deltas, solve,
	// placement, metrics); default 30s — regional solves run inside it.
	ForwardTimeout time.Duration
	// Payment is the top-level delegate game's payment rule (default
	// second-price, the paper's truthful choice).
	Payment mechanism.PaymentRule
	// Dial overrides the dialer per shard (fault injection).
	Dial func(peer Peer) DialFunc
}

// MergeReport summarizes one top-level merge.
type MergeReport struct {
	// Version is the mirror epoch the merged placement was published as.
	Version uint64 `json:"version"`
	// Regions is how many regional placements contributed.
	Regions int `json:"regions"`
	// Winner is the delegate game's winning shard (-1 when no region bid).
	Winner int `json:"winner"`
	// Payment is the winner's second-price payment (the best runner-up
	// region's saved OTC).
	Payment int64 `json:"payment"`
	// Dropped counts merged replicas infeasible on the mirror instance.
	Dropped int `json:"dropped"`
	// BorderDropped and BorderPlaced count the boundary exchange's moves:
	// advertised replicas that priced below zero against the merged global
	// placement and were dropped, and replicas placed into the capacity that
	// freed. Recovered is the OTC the exchange recovered (≥ 0).
	BorderDropped int   `json:"border_dropped"`
	BorderPlaced  int   `json:"border_placed"`
	Recovered     int64 `json:"recovered"`
	// OTC and Savings are the merged placement's economics.
	OTC     int64   `json:"otc"`
	Savings float64 `json:"savings_percent"`
}

// PhaseStats breaks the coordinator's cluster operations into phases for the
// per-phase benchmark columns. Ns fields are cumulative wall-clock except
// RegionSolveNs, which is the slowest shard-reported regional solve of the
// most recent cluster solve (the parallel critical path, free of RPC time).
type PhaseStats struct {
	// Assigns counts assignment fan-outs; PartitionNs is the proximity
	// partition, ShipNs the compact-and-ship fan-out, AssignBytes the wire
	// bytes (sent+received) the fan-outs moved.
	Assigns     int64 `json:"assigns"`
	PartitionNs int64 `json:"partition_ns"`
	ShipNs      int64 `json:"ship_ns"`
	AssignBytes int64 `json:"assign_bytes"`
	// Solves counts cluster solves; SolveNs is the regional-solve fan-out
	// (slowest shard, including RPC), RegionSolveNs the shard-side solve
	// alone.
	Solves        int64 `json:"solves"`
	SolveNs       int64 `json:"solve_ns"`
	RegionSolveNs int64 `json:"region_solve_ns"`
	// Merges counts top-level merges; MergeNs covers placement pulls, the
	// delegate game, translate-and-union, the boundary exchange and the
	// mirror install.
	Merges  int64 `json:"merges"`
	MergeNs int64 `json:"merge_ns"`
}

// Coordinator is the cluster's top level: it mirrors the global state (the
// source of truth deltas apply to), partitions servers into regions by
// communication-cost proximity, ships compacted M'×N' sub-instances to shard
// daemons, runs their games concurrently, and merges the winners — translated
// back through each region's index mapping — through the paper's top-level
// delegate game, with a boundary-replica exchange recovering the cross-region
// savings isolated regional pricing leaves on the table. It implements server.Backend, so the single
// daemon's entire HTTP surface — /route, /epochs, /placement, /metrics —
// serves the merged placement unchanged.
type Coordinator struct {
	cfg        CoordinatorConfig
	mirror     *online.Controller
	membership *Membership
	ep         *Endpoint

	// opMu serializes the state-changing operations (deltas, assign, solve,
	// merge) so an assignment always ships a consistent (state, carry) pair.
	// The read path (Route/Current) never takes it.
	opMu sync.Mutex

	mu        sync.Mutex
	assignVer uint64
	regionOf  []int32 // server -> shard id, -1 unassigned
	// mappings holds the coordinator's copy of each live region's index
	// mapping; its keys are the shards that hold a region. Contents are only
	// read and extended under opMu (routing appends objects in lockstep with
	// the owning shard); the map itself is swapped under both locks on
	// re-assignment.
	mappings map[int]*online.CompactRegion
	// lastMerge memoizes the most recent multi-region merge; nil after a
	// single-region one.
	lastMerge        *mergeMemo
	phase            PhaseStats
	topDecisions     int64
	delegatePayments map[int]int64
	lastWinner       int
	forwardErrors    int64
	lastPayments     []int64
	lastErr          string

	reassignKick chan struct{}
	solveKick    chan struct{}
	loopCancel   context.CancelFunc
	wg           sync.WaitGroup
}

// NewCoordinator builds the coordinator over the global instance and the
// static shard address list (shard i is addrs[i]). Call Serve to answer
// probes and Start for the background loops; the cluster forms on the first
// AssignNow.
func NewCoordinator(p *replication.Problem, shardAddrs []string, cfg CoordinatorConfig) (*Coordinator, error) {
	if len(shardAddrs) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one shard address")
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 30 * time.Second
	}
	mirror, err := online.New(p.Cost, p.Work, p.Capacity, cfg.Controller)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:              cfg,
		mirror:           mirror,
		ep:               NewEndpoint(cfg.Codec),
		regionOf:         make([]int32, p.M),
		mappings:         map[int]*online.CompactRegion{},
		delegatePayments: map[int]int64{},
		lastWinner:       -1,
		reassignKick:     make(chan struct{}, 1),
		solveKick:        make(chan struct{}, 1),
	}
	for i := range co.regionOf {
		co.regionOf[i] = -1
	}
	shards := make([]Peer, len(shardAddrs))
	for i, addr := range shardAddrs {
		shards[i] = Peer{ID: i, Addr: addr}
	}
	co.membership = NewMembership(shards, MembershipConfig{
		Codec:          cfg.Codec,
		ProbeTimeout:   cfg.ProbeTimeout,
		DeathThreshold: cfg.DeathThreshold,
		Dial:           cfg.Dial,
		OnChange: func(_ Peer, _, to PeerState) {
			// A shard died or came back: its region must move. The worker
			// re-partitions; until then the generation check keeps stale
			// shards from absorbing misrouted work.
			if to == Dead || to == Alive {
				co.kick(co.reassignKick)
			}
		},
	})
	HandleFunc(co.ep, MethodPing, func(ctx context.Context, req *PingRequest) (any, error) {
		return &PingReply{Role: "coordinator", Assign: co.AssignVersion(), Version: co.mirror.Current().Version}, nil
	})
	return co, nil
}

func (co *Coordinator) kick(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// Serve starts answering RPC probes on lis.
func (co *Coordinator) Serve(lis net.Listener) { co.ep.Serve(lis) }

// Addr returns the coordinator's RPC listen address.
func (co *Coordinator) Addr() string { return co.ep.Addr() }

// AssignVersion reports the current assignment generation.
func (co *Coordinator) AssignVersion() uint64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.assignVer
}

// Phases snapshots the per-phase counters.
func (co *Coordinator) Phases() PhaseStats {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.phase
}

// Start launches the background loops: shard probes, the re-partition
// worker, and the drift-triggered cluster solve worker (debounced like the
// single daemon's).
func (co *Coordinator) Start(ctx context.Context, probeInterval time.Duration) {
	ctx, cancel := context.WithCancel(ctx)
	co.loopCancel = cancel
	co.membership.Start(ctx, probeInterval)
	co.wg.Add(2)
	go func() {
		defer co.wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case <-co.reassignKick:
			}
			if err := co.AssignNow(ctx); err != nil {
				co.noteErr(err)
			}
		}
	}()
	go func() {
		defer co.wg.Done()
		var lastSolve time.Time
		for {
			select {
			case <-ctx.Done():
				return
			case <-co.solveKick:
			}
			if wait := co.cfg.Controller.SolveDebounce - time.Since(lastSolve); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-ctx.Done():
					t.Stop()
					return
				case <-t.C:
				}
			}
			lastSolve = time.Now()
			if err := co.SolveNow(ctx); err != nil {
				co.noteErr(err)
			}
		}
	}()
}

func (co *Coordinator) noteErr(err error) {
	co.mu.Lock()
	co.lastErr = err.Error()
	co.mu.Unlock()
}

// liveAssigned snapshots the assignment generation, its region mappings and
// the shards, ascending, that are both alive and hold a region.
func (co *Coordinator) liveAssigned() ([]int, uint64, map[int]*online.CompactRegion) {
	alive := co.membership.Alive()
	co.mu.Lock()
	defer co.mu.Unlock()
	live := make([]int, 0, len(alive))
	for _, id := range alive {
		if _, ok := co.mappings[id]; ok {
			live = append(live, id)
		}
	}
	return live, co.assignVer, co.mappings
}

// forward calls method on every listed shard concurrently under
// ForwardTimeout — req builds shard ids[i]'s request inside its goroutine —
// and returns the replies and errors in ids order. It is the one failure
// policy for the coordinator's shard RPCs: each failed call counts as a
// forward error, feeds the failure detector and kicks a re-partition, which
// re-syncs whatever the shard missed.
func forward[Rep any](ctx context.Context, co *Coordinator, ids []int, method string, req func(i int) any) ([]Rep, []error) {
	reps, errs := fanOut[Rep](ctx, co.membership, ids, co.cfg.ForwardTimeout, method, req)
	var failed int64
	for i, err := range errs {
		if err != nil {
			failed++
			co.membership.ReportFailure(ids[i])
		}
	}
	if failed > 0 {
		co.mu.Lock()
		co.forwardErrors += failed
		co.mu.Unlock()
		co.kick(co.reassignKick)
	}
	return reps, errs
}

// AssignNow re-partitions the servers over the live shards and ships every
// region as a compacted M'×N' sub-instance with its index mapping, plus the
// current merged placement — translated into region coordinates — as carry.
// The coordinator keeps its own copy of each mapping: delta routing and the
// merge translate through it. Shards on a dead list keep their stale
// generation and are fenced out by the generation check until they rejoin
// and get a fresh region.
func (co *Coordinator) AssignNow(ctx context.Context) error {
	co.opMu.Lock()
	defer co.opMu.Unlock()

	live := co.membership.Alive()
	if len(live) == 0 {
		return errors.New("cluster: no live shards to assign")
	}
	e := co.mirror.Current()
	t0 := time.Now()
	parts := hierarchy.PartitionBalanced(e.Problem, len(live))
	partitionNs := time.Since(t0).Nanoseconds()
	full := co.mirror.ExportState()
	carry := e.Schema.Matrix()

	co.mu.Lock()
	co.assignVer++
	ver := co.assignVer
	co.mu.Unlock()

	bytesBefore := co.wireBytes(live)
	t1 := time.Now()
	regions := make([]*online.CompactRegion, len(live))
	_, errs := forward[AssignReply](ctx, co, live, MethodAssign, func(j int) any {
		regions[j] = full.Compact(parts[j])
		return &AssignRequest{
			Version: ver, Members: parts[j], Region: regions[j],
			Carry: regions[j].CarryToLocal(carry),
		}
	})
	shipNs := time.Since(t1).Nanoseconds()
	assignBytes := co.wireBytes(live) - bytesBefore

	mappings := make(map[int]*online.CompactRegion, len(live))
	regionOf := make([]int32, e.Problem.M)
	for i := range regionOf {
		regionOf[i] = -1
	}
	var firstErr error
	for j, id := range live {
		if errs[j] != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: assign shard %d: %w", id, errs[j])
			}
			continue
		}
		mappings[id] = regions[j]
		for _, srv := range parts[j] {
			regionOf[srv] = int32(id)
		}
	}
	co.mu.Lock()
	co.regionOf = regionOf
	co.mappings = mappings
	co.phase.Assigns++
	co.phase.PartitionNs += partitionNs
	co.phase.ShipNs += shipNs
	co.phase.AssignBytes += assignBytes
	co.mu.Unlock()
	if len(mappings) == 0 {
		return firstErr
	}
	return nil
}

// wireBytes sums the RPC clients' byte counters for the given shards.
func (co *Coordinator) wireBytes(ids []int) int64 {
	var total int64
	for _, id := range ids {
		sent, recv := co.membership.Client(id).WireBytes()
		total += int64(sent + recv)
	}
	return total
}

// Current, Route, Placement, Metrics, Subscribe, Unsubscribe and
// DrainSubscribers delegate to the mirror: the coordinator serves routes and
// the epoch stream from the merged global placement, so routing clients work
// against a cluster exactly as against a single daemon.

// Current returns the mirror's live epoch.
func (co *Coordinator) Current() *online.Epoch { return co.mirror.Current() }

// Route answers from the merged placement.
func (co *Coordinator) Route(server int, object int32) (int32, error) {
	return co.mirror.Route(server, object)
}

// Placement reports the merged placement.
func (co *Coordinator) Placement() replication.PlacementReport { return co.mirror.Placement() }

// Metrics reports the mirror's controller metrics.
func (co *Coordinator) Metrics() online.Metrics { return co.mirror.Metrics() }

// Subscribe opens an epoch stream on the mirror.
func (co *Coordinator) Subscribe(since uint64, buf int) *online.Subscription {
	return co.mirror.Subscribe(since, buf)
}

// Unsubscribe ends a mirror subscription.
func (co *Coordinator) Unsubscribe(sub *online.Subscription) { co.mirror.Unsubscribe(sub) }

// DrainSubscribers drains the mirror's epoch stream.
func (co *Coordinator) DrainSubscribers() { co.mirror.DrainSubscribers() }

// LastSolvePayments returns the per-server payments summed across the
// regional games of the most recent cluster solve.
func (co *Coordinator) LastSolvePayments() []int64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.lastPayments == nil {
		return nil
	}
	return append([]int64(nil), co.lastPayments...)
}

// ApplyDeltas applies a batch to the global mirror, then fans it out through
// the region mappings: demand deltas go to the owning shard, add-object
// deltas — stamped with their freshly allocated global id — to the primary's
// shard (whose mapping extends in lockstep on both sides), remove-object
// deltas to every shard that maps the object, and membership deltas trigger
// a full re-partition (no piecemeal forwarding — the partition itself
// changed). A batch the live mappings cannot express (demand for an object
// outside its owner's region) also re-partitions: the fresh sub-instances
// include it. A shard that fails its forward is reported to the failure
// detector and re-synced by the next assignment; the mirror remains the
// source of truth either way.
func (co *Coordinator) ApplyDeltas(ds []online.Delta) (online.Applied, error) {
	co.opMu.Lock()
	preN := int32(co.mirror.Current().Problem.N)
	a, err := co.mirror.ApplyDeltas(ds)
	if err != nil {
		co.opMu.Unlock()
		return a, err
	}

	co.mu.Lock()
	regionOf := co.regionOf
	mappings := co.mappings
	ver := co.assignVer
	co.mu.Unlock()

	perShard, reassign, rerr := online.RouteDeltasCompact(ds, func(server int) int {
		if server < 0 || server >= len(regionOf) {
			return -1
		}
		return int(regionOf[server])
	}, mappings, preN)

	if ver == 0 || reassign || rerr != nil {
		// Unformed cluster, membership change, a server outside the live
		// assignment (it joined since), or demand the compaction does not
		// cover: re-partition from fresh state, which ships the new shape
		// inside the sub-instances.
		co.opMu.Unlock()
		if aerr := co.AssignNow(context.Background()); aerr != nil {
			co.noteErr(aerr)
		}
	} else {
		ids := make([]int, 0, len(perShard))
		for id, batch := range perShard {
			if len(batch) > 0 {
				ids = append(ids, id)
			}
		}
		sort.Ints(ids)
		forward[online.Applied](context.Background(), co, ids, MethodDeltas, func(i int) any {
			return &DeltasRequest{Assign: ver, Deltas: perShard[ids[i]]}
		})
		co.opMu.Unlock()
	}

	if a.SolveScheduled {
		co.kick(co.solveKick)
	}
	return a, nil
}

// SolveNow runs one cluster-wide solve: every live region's game in
// parallel, then the top-level merge. Implements server.Backend's solve, so
// POST /solve on the coordinator solves the whole cluster.
func (co *Coordinator) SolveNow(ctx context.Context) error {
	co.opMu.Lock()
	defer co.opMu.Unlock()
	return co.solveLocked(ctx)
}

func (co *Coordinator) solveLocked(ctx context.Context) error {
	live, ver, mappings := co.liveAssigned()
	if len(live) == 0 {
		return errors.New("cluster: no live assigned shards to solve")
	}
	t0 := time.Now()
	reps, errs := forward[SolveReply](ctx, co, live, MethodSolve, func(int) any { return &SolveRequest{} })
	solveNs := time.Since(t0).Nanoseconds()
	payments := make([]int64, co.mirror.Current().Problem.M)
	solved := 0
	var regionNs int64
	var firstErr error
	for i, id := range live {
		err := errs[i]
		if err == nil && reps[i].Assign != ver {
			// The shard solved under a different assignment: its payment
			// indexes mean nothing against this mapping. Re-sync it.
			co.kick(co.reassignKick)
			err = fmt.Errorf("ran assignment %d, coordinator at %d", reps[i].Assign, ver)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: solve shard %d: %w", id, err)
			}
			continue
		}
		solved++
		mappings[id].PaymentsToGlobal(reps[i].Payments, payments)
		regionNs = max(regionNs, reps[i].ElapsedNs)
	}
	if solved == 0 {
		return firstErr
	}
	co.mu.Lock()
	co.lastPayments = payments
	co.phase.Solves++
	co.phase.SolveNs += solveNs
	co.phase.RegionSolveNs = regionNs
	co.mu.Unlock()
	_, err := co.mergeLocked(ctx)
	return err
}

// MergeNow pulls every live region's placement, runs the top-level delegate
// game over the regional savings bids, and installs the union on the mirror
// as the next merged epoch. When the pulled placements and the mirror are
// those of the previous multi-region merge, it returns that merge's report
// and publishes nothing.
func (co *Coordinator) MergeNow(ctx context.Context) (MergeReport, error) {
	co.opMu.Lock()
	defer co.opMu.Unlock()
	return co.mergeLocked(ctx)
}

// pull is one region's placement reply, as a merge consumed it.
type pull struct {
	shard int
	rep   *PlacementReply
}

// mergeMemo keys a multi-region merge's report by everything the merge is
// deterministic in: the assignment generation, the mirror's epoch version
// and the pulled regional placements.
type mergeMemo struct {
	assign, mirrorVer uint64
	pulls             []pull
	report            MergeReport
}

// hit reports whether merging pulls under generation assign at mirror
// version mirrorVer would reproduce the memoized merge. Pulls arrive in
// ascending shard order, so the comparison is positional.
func (m *mergeMemo) hit(assign, mirrorVer uint64, pulls []pull) bool {
	if m == nil || m.assign != assign || m.mirrorVer != mirrorVer || len(m.pulls) != len(pulls) {
		return false
	}
	for i := range pulls {
		if pulls[i].shard != m.pulls[i].shard || !placementEqual(pulls[i].rep, m.pulls[i].rep) {
			return false
		}
	}
	return true
}

func (co *Coordinator) mergeLocked(ctx context.Context) (MergeReport, error) {
	live, ver, mappings := co.liveAssigned()
	if len(live) == 0 {
		return MergeReport{}, errors.New("cluster: no live assigned shards to merge")
	}
	t0 := time.Now()
	reps, errs := forward[PlacementReply](ctx, co, live, MethodPlacement, func(int) any { return &PlacementRequest{} })
	var pulls []pull
	for i, id := range live {
		if errs[i] != nil {
			continue
		}
		if reps[i].Assign != ver {
			// A different generation's placement is in the wrong coordinate
			// system; drop it and re-sync the shard.
			co.kick(co.reassignKick)
			continue
		}
		pulls = append(pulls, pull{shard: id, rep: &reps[i]})
	}
	if len(pulls) == 0 {
		return MergeReport{}, errors.New("cluster: every placement pull failed")
	}

	// The memo gate, on content: a regional re-solve publishes a fresh epoch
	// even when it lands on the same placement, but if every pulled
	// placement (matrix, bid, ads) equals what the last merge consumed and
	// the mirror has not moved, the translate + carry + exchange pipeline
	// would reproduce the installed placement exactly.
	e := co.mirror.Current()
	co.mu.Lock()
	memo := co.lastMerge
	co.mu.Unlock()
	if memo.hit(ver, e.Version, pulls) {
		co.mu.Lock()
		co.phase.Merges++
		co.phase.MergeNs += time.Since(t0).Nanoseconds()
		co.mu.Unlock()
		return memo.report, nil
	}

	parts := make([]regionPart, 0, len(pulls))
	for _, pl := range pulls {
		mapping := mappings[pl.shard]
		pt := regionPart{
			shard:   pl.shard,
			members: pl.rep.Members,
			matrix:  mapping.MatrixToGlobal(pl.rep.Matrix, e.Problem.N),
			saved:   pl.rep.SavedOTC,
		}
		for _, ad := range pl.rep.Border {
			gk, okK := mapping.GlobalObject(ad.Object)
			gs, okS := mapping.GlobalServer(int(ad.Server))
			if okK && okS {
				pt.border = append(pt.border, globalAd{object: gk, server: int32(gs), gain: ad.Gain})
			}
		}
		parts = append(parts, pt)
	}

	// The top-level delegate game: each region's delegate bids the transfer
	// cost its game saved; the winner is paid the runner-up's savings
	// (second-price — Axiom 5's incentive, applied one level up). The
	// allocation itself is the union: regions own disjoint server sets, so
	// every regional winner coexists in the merged placement, and the game
	// ranks the delegates for payment and precedence accounting.
	bids := make([]mechanism.Bid, 0, len(parts))
	for _, pt := range parts {
		bids = append(bids, mechanism.Bid{Agent: pt.shard, Value: pt.saved})
	}
	winner, payment := -1, int64(0)
	if round, ok := mechanism.RunRound(bids, co.cfg.Payment); ok {
		winner, payment = round.Winner.Agent, round.Payment
		co.mu.Lock()
		co.topDecisions++
		co.delegatePayments[winner] += payment
		co.lastWinner = winner
		co.mu.Unlock()
	}

	carried, dropped := e.Problem.CarryOver(mergeParts(e.Problem.N, e.Problem.M, e.Problem.Work.Primary, parts))
	var recovered int64
	borderDropped, borderPlaced := 0, 0
	if len(parts) > 1 {
		// Boundary-replica exchange: each region priced its surplus replicas
		// in isolation; against the merged placement some are redundant — a
		// neighbouring region's copy serves the same readers cheaper — and
		// removing them *reduces* global OTC (negative removal delta). Drop
		// those, cheapest local value first, then reinvest the freed
		// capacity where the merged placement still wants copies. This is
		// the cross-region coordination a masked merge structurally could
		// not do. The single-region case skips the exchange entirely, which
		// keeps the 1-shard cluster bit-identical to the single daemon.
		recovered, borderDropped, borderPlaced = exchangeBorders(carried, e.Problem, parts)
	}
	dropped = co.mirror.InstallSchema(carried, dropped)
	mergeNs := time.Since(t0).Nanoseconds()
	cur := co.mirror.Current()
	report := MergeReport{
		Version:       cur.Version,
		Regions:       len(parts),
		Winner:        winner,
		Payment:       payment,
		Dropped:       dropped,
		BorderDropped: borderDropped,
		BorderPlaced:  borderPlaced,
		Recovered:     recovered,
		OTC:           cur.Schema.TotalCost(),
		Savings:       cur.Schema.Savings(),
	}
	co.mu.Lock()
	co.phase.Merges++
	co.phase.MergeNs += mergeNs
	// Memoize multi-region merges only: the 1-shard path must keep
	// installing every merge so its epoch cadence stays bit-identical to
	// the single daemon's.
	co.lastMerge = nil
	if len(parts) > 1 {
		co.lastMerge = &mergeMemo{assign: ver, mirrorVer: cur.Version, pulls: pulls, report: report}
	}
	co.mu.Unlock()
	return report, nil
}

// placementEqual reports whether two placement replies describe the same
// regional outcome. Version is deliberately ignored: a re-solve that lands
// on the identical placement publishes a fresh epoch but changes nothing
// the merge consumes.
func placementEqual(a, b *PlacementReply) bool {
	if a.OTC != b.OTC || a.BaseOTC != b.BaseOTC || a.SavedOTC != b.SavedOTC ||
		len(a.Members) != len(b.Members) || len(a.Matrix) != len(b.Matrix) || len(a.Border) != len(b.Border) {
		return false
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			return false
		}
	}
	for i := range a.Matrix {
		ra, rb := a.Matrix[i], b.Matrix[i]
		if len(ra) != len(rb) {
			return false
		}
		for j := range ra {
			if ra[j] != rb[j] {
				return false
			}
		}
	}
	for i := range a.Border {
		if a.Border[i] != b.Border[i] {
			return false
		}
	}
	return true
}

// regionPart is one region's contribution to a merge, already translated
// into global coordinates.
type regionPart struct {
	shard   int
	members []int32
	matrix  [][]int32
	saved   int64
	border  []globalAd
}

// globalAd is a BorderAd translated to global coordinates.
type globalAd struct {
	object int32
	server int32
	gain   int64
}

// mergeParts unions the regional placements: object k's merged replica set
// is its primary plus every member-owned replica each region placed.
// Replicas a region reports on servers outside its member set (it cannot
// create them — boundary capacity forbids it — but a stale carry might
// still list them) are ignored, as are replicas on regions that did not
// report (their servers' surplus replicas dissolve, the eviction
// semantics). Regional rows arrive sorted and regions own disjoint member
// sets, so the union stays allocation-light: one row per object, one sort.
func mergeParts(n, m int, primary []int32, parts []regionPart) [][]int32 {
	ownerOf := make([]int32, m)
	for i := range ownerOf {
		ownerOf[i] = -1
	}
	for i, pt := range parts {
		for _, s := range pt.members {
			if s >= 0 && int(s) < m {
				ownerOf[s] = int32(i)
			}
		}
	}
	out := make([][]int32, n)
	for k := 0; k < n; k++ {
		row := make([]int32, 1, 4)
		row[0] = primary[k]
		for i, pt := range parts {
			if k >= len(pt.matrix) || pt.matrix[k] == nil {
				continue
			}
			for _, s := range pt.matrix[k] {
				if int(s) < m && ownerOf[s] == int32(i) && s != primary[k] {
					row = append(row, s)
				}
			}
		}
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		out[k] = row
	}
	return out
}

// exchangeBorders runs the boundary-replica exchange on the merged schema:
// repeated drop passes over the regions' advertisements (remove while the
// global removal delta is negative, cheapest regional value first — the ads
// a region valued least are the likeliest to be globally redundant), each
// followed by a reinvest pass that offers the freed capacity to the demand
// cells the drops disturbed. Deterministic: ads are sorted, affected sets
// are walked in ascending order. Returns the OTC recovered (≥ 0) and the
// move counts.
func exchangeBorders(carried *replication.Schema, p *replication.Problem, parts []regionPart) (recovered int64, borderDropped, borderPlaced int) {
	// Only objects holding non-primary replicas from two or more regions can
	// be over-replicated by the union: a single region's surplus already
	// passed its own game's pricing (non-negative regional value), and the
	// merge only adds readers to it, so its removal delta stays
	// non-negative. Ads the region itself priced negative are kept
	// regardless — they are redundant even regionally (stale carry the
	// regional game has not cleaned up yet). Everything else is filtered
	// before any global re-pricing, which is what keeps the exchange's cost
	// proportional to the contested boundary rather than the replica count.
	// The count stops at 2, the only threshold it is tested against, so any
	// number of regions fits a byte.
	contributors := make([]uint8, p.N)
	for _, pt := range parts {
		for k, row := range pt.matrix {
			if contributors[k] == 2 {
				continue
			}
			for _, s := range row {
				if s != p.Work.Primary[k] {
					contributors[k]++
					break
				}
			}
		}
	}
	var ads []globalAd
	for _, pt := range parts {
		for _, ad := range pt.border {
			if ad.gain < 0 || (int(ad.object) < p.N && contributors[ad.object] >= 2) {
				ads = append(ads, ad)
			}
		}
	}
	sort.Slice(ads, func(a, b int) bool {
		if ads[a].gain != ads[b].gain {
			return ads[a].gain < ads[b].gain
		}
		if ads[a].object != ads[b].object {
			return ads[a].object < ads[b].object
		}
		return ads[a].server < ads[b].server
	})
	// Pass 1 prices every ad; later passes only revisit objects whose
	// replica set changed in the previous pass — removal and placement
	// deltas are object-local, so an untouched object kept its pricing and
	// re-checking it would repeat the previous pass's verdict. The first
	// pass does ~all the moves (the tail passes converge in a handful), so
	// this caps the exchange at roughly one full sweep.
	var prev map[int32]bool // nil: first pass, consider everything
	const maxPasses = 3
	for pass := 0; pass < maxPasses; pass++ {
		changed := map[int32]bool{} // objects whose replica set moved this pass
		freed := map[int]bool{}     // servers that gained residual this pass
		moves := 0
		for _, ad := range ads {
			if prev != nil && !prev[ad.object] {
				continue
			}
			m := int(ad.server)
			if !carried.HasReplica(ad.object, m) {
				continue
			}
			if carried.DeltaIfRemoved(ad.object, m) >= 0 {
				continue
			}
			d, err := carried.RemoveReplica(ad.object, m)
			if err != nil {
				continue
			}
			recovered -= d
			borderDropped++
			moves++
			changed[ad.object] = true
			freed[m] = true
		}
		placed, rec := reinvestFreed(carried, p, changed, freed)
		borderPlaced += placed
		recovered += rec
		moves += placed
		if moves == 0 {
			break
		}
		prev = changed
	}
	return recovered, borderDropped, borderPlaced
}

// reinvestFreed offers freed capacity back to the placement: the demanders
// of every object whose replica set shrank, and the demand cells of every
// server that gained residual, are re-judged against the merged schema and
// placed where the global delta is negative.
func reinvestFreed(carried *replication.Schema, p *replication.Problem, affected map[int32]bool, freed map[int]bool) (placed int, recovered int64) {
	try := func(k int32, m int) {
		if carried.HasReplica(k, m) || carried.CanPlace(k, m) != nil {
			return
		}
		if carried.DeltaIfPlaced(k, m) >= 0 {
			return
		}
		if d, err := carried.PlaceReplica(k, m); err == nil {
			recovered -= d
			placed++
			affected[k] = true // revisit the object next pass
		}
	}
	objs := make([]int32, 0, len(affected))
	for k := range affected {
		objs = append(objs, k)
	}
	sort.Slice(objs, func(a, b int) bool { return objs[a] < objs[b] })
	for _, k := range objs {
		for _, ref := range p.DemandersOf(k) {
			try(k, int(ref.Server))
		}
	}
	srvs := make([]int, 0, len(freed))
	for m := range freed {
		srvs = append(srvs, m)
	}
	sort.Ints(srvs)
	for _, m := range srvs {
		for _, dem := range p.Work.PerServer[m] {
			try(dem.Object, m)
		}
	}
	return placed, recovered
}

// Close tears the coordinator down: loops, membership clients, endpoint,
// then the mirror.
func (co *Coordinator) Close() {
	if co.loopCancel != nil {
		co.loopCancel()
	}
	co.wg.Wait()
	co.membership.Close()
	co.ep.Close()
	co.mirror.Close()
}
