package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/hierarchy"
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
	// Dial overrides the dialer per shard (fault injection).
	Dial func(peer Peer) DialFunc
}

// forwardTimeout bounds every forwarded RPC (assign, deltas, solve,
// metrics); regional solves run inside it.
const forwardTimeout = 30 * time.Second

// PhaseStats breaks the coordinator's cluster operations into phases for the
// per-phase benchmark columns. Ns fields are cumulative wall-clock except
// RegionSolveNs, which is the slowest shard-reported regional solve of the
// most recent cluster solve (the parallel critical path, free of RPC time).
type PhaseStats struct {
	// Assigns counts assignment fan-outs; PartitionNs is the proximity
	// partition, ShipNs the mask-and-ship fan-out, AssignBytes the wire
	// bytes (sent+received) the fan-outs moved.
	Assigns     int64 `json:"assigns"`
	PartitionNs int64 `json:"partition_ns"`
	ShipNs      int64 `json:"ship_ns"`
	AssignBytes int64 `json:"assign_bytes"`
	// Solves counts cluster solves; SolveNs is the regional-solve fan-out
	// (slowest shard, including RPC and the shard building its reply),
	// RegionSolveNs the shard-side solve alone.
	Solves        int64 `json:"solves"`
	SolveNs       int64 `json:"solve_ns"`
	RegionSolveNs int64 `json:"region_solve_ns"`
	// Merges counts top-level merges; MergeNs covers what the coordinator
	// does with the solve replies: payments, the memo check, the union, the
	// carry, the boundary exchange and the mirror install. CarryNs (the
	// union and its CarryOver) and ExchangeNs (the boundary exchange) are
	// the sub-phases that grow with the placement; both sit inside MergeNs,
	// and a memo hit adds to neither.
	Merges     int64 `json:"merges"`
	MergeNs    int64 `json:"merge_ns"`
	CarryNs    int64 `json:"carry_ns"`
	ExchangeNs int64 `json:"exchange_ns"`
}

// Coordinator is the cluster's top level: it mirrors the global state (the
// source of truth deltas apply to), partitions servers into regions by
// communication-cost proximity, ships each shard daemon the mirror's state
// masked to its region, runs their games concurrently, and merges their
// placements: the union of the regions' surplus replicas, then a
// boundary-replica exchange recovering the cross-region savings isolated
// regional pricing leaves on the table. Every daemon speaks the mirror's
// ids, so nothing is translated on the way. It implements server.Backend,
// so the single daemon's entire HTTP surface — /route, /epochs,
// /placement, /metrics — serves the merged placement unchanged.
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
	// assigned holds the shards that hold a region of generation
	// assignVer; regionOf maps each of their members to them. Both are
	// swapped, never written, on re-assignment.
	assigned map[int]bool
	// lastMerge memoizes the most recent multi-region merge; nil after a
	// single-region one.
	lastMerge     *mergeMemo
	phase         PhaseStats
	forwardErrors int64
	lastPayments  []int64
	lastErr       string

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
	mirror, err := online.New(p.Cost, p.Work, p.Capacity, cfg.Controller)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:          cfg,
		mirror:       mirror,
		ep:           NewEndpoint(cfg.Codec),
		regionOf:     make([]int32, p.M),
		assigned:     map[int]bool{},
		reassignKick: make(chan struct{}, 1),
		solveKick:    make(chan struct{}, 1),
	}
	for i := range co.regionOf {
		co.regionOf[i] = -1
	}
	shards := make([]Peer, len(shardAddrs))
	for i, addr := range shardAddrs {
		shards[i] = Peer{ID: i, Addr: addr}
	}
	co.membership = NewMembership(shards, MembershipConfig{
		Codec: cfg.Codec,
		Dial:  cfg.Dial,
		OnChange: func(_ Peer, _, to PeerState) {
			// A shard died or came back: its region must move. The worker
			// re-partitions; until then the generation check keeps stale
			// shards from absorbing misrouted work.
			if to == Dead || to == Alive {
				online.Kick(co.reassignKick)
			}
		},
	})
	HandleFunc(co.ep, MethodPing, ping)
	return co, nil
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
// (undebounced) and the drift-triggered cluster solve (spaced by
// SolveDebounce), both on online.SolveLoop like the single daemon's solves.
func (co *Coordinator) Start(ctx context.Context, probeInterval time.Duration) {
	ctx, cancel := context.WithCancel(ctx)
	co.loopCancel = cancel
	co.membership.Start(ctx, probeInterval)
	spawn := func(kicks chan struct{}, debounce time.Duration, run func(context.Context) error) {
		co.wg.Add(1)
		go func() {
			defer co.wg.Done()
			online.SolveLoop(ctx, kicks, debounce, func(ctx context.Context) {
				if err := run(ctx); err != nil {
					co.noteErr(err)
				}
			})
		}()
	}
	spawn(co.reassignKick, 0, co.AssignNow)
	spawn(co.solveKick, co.cfg.Controller.SolveDebounce, co.SolveNow)
}

func (co *Coordinator) noteErr(err error) {
	co.mu.Lock()
	co.lastErr = err.Error()
	co.mu.Unlock()
}

// liveAssigned snapshots the assignment generation and the shards,
// ascending, that are both alive and hold a region.
func (co *Coordinator) liveAssigned() ([]int, uint64) {
	alive := co.membership.Alive()
	co.mu.Lock()
	defer co.mu.Unlock()
	live := make([]int, 0, len(alive))
	for _, id := range alive {
		if co.assigned[id] {
			live = append(live, id)
		}
	}
	return live, co.assignVer
}

// forward calls method on every listed shard concurrently under
// forwardTimeout — req builds shard ids[i]'s request inside its goroutine —
// and returns the replies and errors in ids order. It is the one failure
// policy for the coordinator's shard RPCs: each failed call counts as a
// forward error, feeds the failure detector and kicks a re-partition, which
// re-syncs whatever the shard missed.
func forward[Rep any](ctx context.Context, co *Coordinator, ids []int, method string, req func(i int) any) ([]Rep, []error) {
	reps, errs := fanOut[Rep](ctx, co.membership, ids, forwardTimeout, method, req)
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
		online.Kick(co.reassignKick)
	}
	return reps, errs
}

// AssignNow re-partitions the servers over the live shards and ships every
// region as the mirror's state masked to its members, plus the members'
// share of the current merged placement as carry. The coordinator keeps
// only which shard owns each server, for delta routing and the merge.
// Shards on a dead list keep their stale generation and are fenced out by
// the generation check until they rejoin and get a fresh region.
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
	masked := make([]*online.Region, len(live))
	_, errs := forward[AssignReply](ctx, co, live, MethodAssign, func(j int) any {
		masked[j] = full.Mask(parts[j])
		return &AssignRequest{Version: ver, Region: masked[j], Carry: masked[j].Carry(carry)}
	})
	shipNs := time.Since(t1).Nanoseconds()
	assignBytes := co.wireBytes(live) - bytesBefore

	assigned := make(map[int]bool, len(live))
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
		assigned[id] = true
		for _, srv := range masked[j].Members {
			regionOf[srv] = int32(id)
		}
	}
	co.mu.Lock()
	co.regionOf = regionOf
	co.assigned = assigned
	co.phase.Assigns++
	co.phase.PartitionNs += partitionNs
	co.phase.ShipNs += shipNs
	co.phase.AssignBytes += assignBytes
	co.mu.Unlock()
	if len(assigned) == 0 {
		return firstErr
	}
	return nil
}

// Form is one attempt at the cluster's first formation. AssignNow alone is
// satisfied once any live shard holds a region, and a shard whose
// assignment failed DeathThreshold times is Dead, so the next AssignNow
// partitions over the others; before the background probes start nothing
// would bring it back. So Form probes the shards first, assigns only when
// every configured shard answered that probe, and returns nil only when
// every one of them holds a region of this generation. Otherwise it
// returns why, and the caller retries.
func (co *Coordinator) Form(ctx context.Context) error {
	co.membership.ProbeOnce(ctx)
	for _, id := range co.membership.ids {
		if co.membership.State(id) != Alive {
			return fmt.Errorf("cluster: shard %d does not answer", id)
		}
	}
	if err := co.AssignNow(ctx); err != nil {
		return err
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, id := range co.membership.ids {
		if !co.assigned[id] {
			return fmt.Errorf("cluster: shard %d holds no region", id)
		}
	}
	// Every shard holds a region: a re-partition that the probes' Dead
	// and Alive verdicts queued would only rebuild what is in place.
	select {
	case <-co.reassignKick:
	default:
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
// DrainSubscribers call the mirror: the coordinator serves routes and the
// epoch stream from the merged global placement, so routing clients work
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

// ApplyDeltas applies a batch to the global mirror, then fans it out under
// one rule (online.RouteDeltas): demand, server-join and server-leave go to
// the region that owns the server, remove-object to every region. What no
// live region owns — add-object, a new server id — re-partitions instead,
// and the fresh regions include it. A region therefore never changes
// between assignments. A shard that fails its forward is reported to the
// failure detector and re-synced by the next assignment; the mirror remains
// the source of truth either way.
func (co *Coordinator) ApplyDeltas(ds []online.Delta) (online.Applied, error) {
	co.opMu.Lock()
	a, err := co.mirror.ApplyDeltas(ds)
	if err != nil {
		co.opMu.Unlock()
		return a, err
	}

	co.mu.Lock()
	regionOf := co.regionOf
	assigned := co.assigned
	ver := co.assignVer
	co.mu.Unlock()

	perShard, forwardable := online.RouteDeltas(ds, func(server int) int {
		if server < 0 || server >= len(regionOf) {
			return -1
		}
		return int(regionOf[server])
	}, assigned)

	if ver == 0 || !forwardable {
		// Unformed cluster, or a batch no live region owns all of:
		// re-partition from fresh state, which ships the new shape inside
		// the regions.
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
		forward[DeltasReply](context.Background(), co, ids, MethodDeltas, func(i int) any {
			return &DeltasRequest{Assign: ver, Deltas: perShard[ids[i]]}
		})
		co.opMu.Unlock()
	}

	if a.SolveScheduled {
		online.Kick(co.solveKick)
	}
	return a, nil
}

// SolveNow runs one cluster-wide solve: one fan-out in which every live
// region runs its game and answers with its outcome, then the top-level
// merge over those replies. Implements server.Backend's solve, so POST
// /solve on the coordinator solves the whole cluster.
func (co *Coordinator) SolveNow(ctx context.Context) error {
	co.opMu.Lock()
	defer co.opMu.Unlock()
	live, ver := co.liveAssigned()
	if len(live) == 0 {
		return errors.New("cluster: no live assigned shards to solve")
	}
	t0 := time.Now()
	reps, errs := forward[SolveReply](ctx, co, live, MethodSolve, func(int) any { return &SolveRequest{} })
	solveNs := time.Since(t0).Nanoseconds()
	var replies []regionReply
	var regionNs int64
	var firstErr error
	for i, id := range live {
		err := errs[i]
		if err == nil && reps[i].Assign != ver {
			// The shard solved under a different assignment: its placement
			// is of another partition. Re-sync it.
			online.Kick(co.reassignKick)
			err = fmt.Errorf("ran assignment %d, coordinator at %d", reps[i].Assign, ver)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: solve shard %d: %w", id, err)
			}
			continue
		}
		replies = append(replies, regionReply{shard: id, rep: &reps[i]})
		regionNs = max(regionNs, reps[i].ElapsedNs)
	}
	if len(replies) == 0 {
		return firstErr
	}
	co.mu.Lock()
	co.phase.Solves++
	co.phase.SolveNs += solveNs
	co.phase.RegionSolveNs = regionNs
	co.mu.Unlock()
	co.merge(ver, replies)
	return nil
}

// regionReply is one region's solve reply, as a merge receives it.
type regionReply struct {
	shard int
	rep   *SolveReply
}

// mergeMemo keys a multi-region merge by everything it is deterministic in:
// the assignment generation, the mirror's epoch version and each region's
// shard id and bounded ads. The generation and the mirror version fix the
// region each schema was solved on, and the ads list every surplus replica
// of that schema.
type mergeMemo struct {
	assign, mirrorVer uint64
	parts             []regionPart
}

// hit reports whether merging parts under generation assign at mirror
// version mirrorVer would reproduce the memoized merge. Parts arrive in
// ascending shard order, so the comparison is positional.
func (m *mergeMemo) hit(assign, mirrorVer uint64, parts []regionPart) bool {
	if m == nil || m.assign != assign || m.mirrorVer != mirrorVer || len(m.parts) != len(parts) {
		return false
	}
	for i, pt := range parts {
		if pt.shard != m.parts[i].shard || !slices.Equal(pt.border, m.parts[i].border) {
			return false
		}
	}
	return true
}

// merge is the top level of a cluster solve, run under opMu over the replies
// of the regions that solved under generation ver: it sums their payments
// and installs the union of their placements, after the boundary exchange,
// on the mirror as the next merged epoch. When the bounded replies and the
// mirror are those of the previous multi-region merge, it publishes nothing.
func (co *Coordinator) merge(ver uint64, replies []regionReply) {
	t0 := time.Now()
	e := co.mirror.Current()
	co.mu.Lock()
	regionOf, memo := co.regionOf, co.lastMerge
	co.mu.Unlock()
	// Replies arrive over RPC, so the merge bounds every id they carry, once:
	// payments past M are ignored, and an ad counts only on an object in
	// [0, N) and a server of the replying region.
	n := e.Problem.N
	payments := make([]int64, e.Problem.M)
	parts := make([]regionPart, 0, len(replies))
	for _, r := range replies {
		for s, v := range r.rep.Payments[:min(len(r.rep.Payments), len(payments))] {
			payments[s] += v
		}
		pt := regionPart{shard: r.shard, border: make([]BorderAd, 0, len(r.rep.Border))}
		for _, ad := range r.rep.Border {
			if ad.Object >= 0 && int(ad.Object) < n && ad.Server >= 0 && int(ad.Server) < len(regionOf) &&
				regionOf[ad.Server] == int32(r.shard) {
				pt.border = append(pt.border, ad)
			}
		}
		parts = append(parts, pt)
	}
	// Every cluster solve replaces the payments, a memo hit included: the
	// regions solved again either way.
	co.mu.Lock()
	co.lastPayments = payments
	co.mu.Unlock()

	// The memo gate, on content: a regional re-solve publishes a fresh epoch
	// even when it lands on the same placement, but if every region's ads
	// equal what the last merge consumed and the mirror has not moved, the
	// union + carry + exchange pipeline would reproduce the installed
	// placement exactly.
	if memo.hit(ver, e.Version, parts) {
		co.mu.Lock()
		co.phase.Merges++
		co.phase.MergeNs += time.Since(t0).Nanoseconds()
		co.mu.Unlock()
		return
	}

	t1 := time.Now()
	carried, dropped := e.Problem.CarryOver(mergeParts(n, e.Problem.Work.Primary, parts))
	carryNs := time.Since(t1).Nanoseconds()
	var exchangeNs int64
	if len(parts) > 1 {
		// Boundary-replica exchange: each region priced its surplus replicas
		// in isolation; against the merged placement some are redundant — a
		// neighbouring region's copy serves the same readers cheaper — and
		// removing them *reduces* global OTC (negative removal delta). Drop
		// those, cheapest local value first, then reinvest the freed
		// capacity where the merged placement still wants copies. This is
		// the cross-region coordination no regional game can do on its
		// own. The single-region case skips the exchange entirely, which
		// keeps the 1-shard cluster bit-identical to the single daemon.
		t2 := time.Now()
		exchangeBorders(carried, e.Problem, parts)
		exchangeNs = time.Since(t2).Nanoseconds()
	}
	co.mirror.InstallSchema(carried, dropped)
	mergeNs := time.Since(t0).Nanoseconds()
	installed := co.mirror.Current().Version
	co.mu.Lock()
	co.phase.Merges++
	co.phase.MergeNs += mergeNs
	co.phase.CarryNs += carryNs
	co.phase.ExchangeNs += exchangeNs
	// Memoize multi-region merges only: the 1-shard path must keep
	// installing every merge so its epoch cadence stays bit-identical to
	// the single daemon's.
	co.lastMerge = nil
	if len(parts) > 1 {
		co.lastMerge = &mergeMemo{assign: ver, mirrorVer: installed, parts: parts}
	}
	co.mu.Unlock()
}

// regionPart is one region's contribution to a merge: its border ads, which
// are its placement's surplus replicas, every ad on an object of the
// instance and a server of the region.
type regionPart struct {
	shard  int
	border []BorderAd
}

// mergeParts unions the regional placements: object k's merged replica set
// is its primary plus every ad on k, sorted and deduplicated, so a repeated
// ad or an ad on the primary (only a malformed reply sends either) cannot
// duplicate a replica. Regions that did not reply have no part, so their
// servers' surplus replicas dissolve (the eviction semantics). The rows
// share one backing array, sized before it is filled.
func mergeParts(n int, primary []int32, parts []regionPart) [][]int32 {
	size := make([]int, n)
	total := n
	for _, pt := range parts {
		for _, ad := range pt.border {
			size[ad.Object]++
		}
		total += len(pt.border)
	}
	flat := make([]int32, total)
	rows := make([][]int32, n)
	for k := range rows {
		end := 1 + size[k]
		rows[k] = append(flat[:0:end], primary[k])
		flat = flat[end:]
	}
	for _, pt := range parts {
		for _, ad := range pt.border {
			rows[ad.Object] = append(rows[ad.Object], ad.Server)
		}
	}
	for k, row := range rows {
		slices.Sort(row)
		rows[k] = slices.Compact(row)
	}
	return rows
}

// exchangeBorders runs the boundary-replica exchange on the merged schema:
// repeated drop passes over the regions' advertisements (remove while the
// global removal delta is negative, cheapest regional value first — the ads
// a region valued least are the likeliest to be globally redundant), each
// followed by a reinvest pass that offers the freed capacity to the demand
// cells the drops disturbed. A drop is a node's best response in a
// capacitated selfish replication game: remove a copy iff that lowers the
// cost. So a drop pass asks only the removal delta's sign
// (replication.Served), object by object, walking only the cells the
// tested copy serves. Deterministic: each object's ads are sorted, affected
// sets are walked in ascending order. Returns the OTC recovered (≥ 0) and
// the move counts.
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
	// owner[k] is 1 + the index of the one part with a surplus replica of
	// k, 0 before any, contested once a second part has one: a part counts
	// once per object however many ads it sends for it.
	const contested = -1
	owner := make([]int32, p.N)
	for i, pt := range parts {
		id := int32(i + 1)
		for _, ad := range pt.border {
			switch k := ad.Object; {
			case ad.Server == p.Work.Primary[k] || owner[k] == id:
			case owner[k] == 0:
				owner[k] = id
			default:
				owner[k] = contested
			}
		}
	}
	keep := func(ad BorderAd) bool { return ad.Gain < 0 || owner[ad.Object] == contested }
	// A drop test and a removal read and write only their own object's
	// replica list and demand cells, plus the removed server's residual,
	// which no drop test reads. So drops of different objects commute within
	// a pass, and the ads run object by object, each object's cheapest
	// regional value first: the same drops as one (gain, object, server)
	// order, with each object's cells indexed by nearest replica once. A
	// counting sort over object ids puts object k's ads at ads[at[k]:at[k+1]].
	at := make([]int32, p.N+1)
	for _, pt := range parts {
		for _, ad := range pt.border {
			if keep(ad) {
				at[ad.Object+1]++
			}
		}
	}
	for k := range p.N {
		at[k+1] += at[k]
	}
	ads := make([]BorderAd, at[p.N])
	next := slices.Clone(at[:p.N])
	for _, pt := range parts {
		for _, ad := range pt.border {
			if keep(ad) {
				ads[next[ad.Object]] = ad
				next[ad.Object]++
			}
		}
	}
	var objects []int32 // the objects a pass visits, ascending
	for k := range p.N {
		if ka := ads[at[k]:at[k+1]]; len(ka) > 0 {
			objects = append(objects, int32(k))
			slices.SortFunc(ka, func(a, b BorderAd) int {
				return cmp.Or(cmp.Compare(a.Gain, b.Gain), cmp.Compare(a.Server, b.Server))
			})
		}
	}
	// Pass 1 prices every ad; later passes only revisit objects whose
	// replica set changed in the previous pass — removal and placement
	// deltas are object-local, so an untouched object kept its pricing and
	// re-checking it would repeat the previous pass's verdict. The first
	// pass does ~all the moves (the tail passes converge in a handful), so
	// this caps the exchange at roughly one full sweep.
	var served replication.Served
	const maxPasses = 3
	for pass := 0; pass < maxPasses && len(objects) > 0; pass++ {
		changed := map[int32]bool{} // objects whose replica set moved this pass
		freed := map[int]bool{}     // servers that gained residual this pass
		moves := 0
		for _, k := range objects {
			served.Reset(carried, k)
			for _, ad := range ads[at[k]:at[k+1]] {
				m := int(ad.Server)
				if !carried.HasReplica(k, m) || !served.RemovalSaves(m) {
					continue
				}
				d, err := carried.RemoveReplica(k, m)
				if err != nil {
					continue
				}
				served.Reset(carried, k) // m's cells moved to other replicas
				recovered -= d
				borderDropped++
				moves++
				changed[k] = true
				freed[m] = true
			}
		}
		placed, rec := reinvestFreed(carried, p, changed, freed)
		borderPlaced += placed
		recovered += rec
		moves += placed
		if moves == 0 {
			break
		}
		objects = objects[:0]
		for k := range changed {
			if at[k] < at[k+1] {
				objects = append(objects, k)
			}
		}
		slices.Sort(objects)
	}
	return recovered, borderDropped, borderPlaced
}

// reinvestFreed offers freed capacity back to the placement: the demanders
// of every object whose replica set shrank, and the demand cells of every
// server that gained residual, are re-judged against the merged schema and
// placed where the global delta is negative.
func reinvestFreed(carried *replication.Schema, p *replication.Problem, affected map[int32]bool, freed map[int]bool) (placed int, recovered int64) {
	// Every k and m here is in range, so CanPlace reduces to these two
	// checks, without building an error for each refused try.
	try := func(k int32, m int) {
		if carried.HasReplica(k, m) || carried.Residual(m) < p.Work.ObjectSize[k] {
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
