package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	_ "repro/internal/agtram" // register the agt-ram solver
	"repro/internal/faultnet"
	"repro/internal/hierarchy"
	"repro/internal/online"
	"repro/internal/replication"
	"repro/internal/testutil"
	"repro/internal/workload"
)

func listen(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return lis
}

// demandTrace builds a deterministic delta trace: batches of demand bumps
// over random (server, object) pairs from a seeded generator. The same seed
// yields the same trace, so both sides of a differential test see identical
// input.
func demandTrace(p *replication.Problem, seed int64, batches, perBatch int) [][]online.Delta {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]online.Delta, batches)
	for b := range out {
		batch := make([]online.Delta, perBatch)
		for i := range batch {
			batch[i] = online.Delta{
				Kind:   online.KindDemand,
				Server: rng.Intn(p.M),
				Object: int32(rng.Intn(p.N)),
				Reads:  int64(rng.Intn(40) + 1),
				Writes: int64(rng.Intn(5)),
			}
		}
		out[b] = batch
	}
	return out
}

// TestOneShardClusterBitIdentical is the keystone differential test: a
// cluster of exactly one shard, driven over real loopback TCP, must be
// bit-identical to a single daemon fed the same seeded trace — same epoch
// versions, same placement matrices, same Vickrey payments, same route
// answer for every (server, object) pair. The masking argument says a
// 1-shard mask is the identity, so any divergence is a bug in the RPC
// plane, the state export, or the merge — not a tolerable approximation.
func TestOneShardClusterBitIdentical(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(7))
	cfg := online.Config{Seed: 42}
	ctx := context.Background()

	single, err := online.New(p.Cost, p.Work, p.Capacity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	sh := NewShard(0, p.Cost, ShardConfig{Codec: CodecGob, Controller: cfg})
	sh.Serve(listen(t))
	defer sh.Close()

	co, err := NewCoordinator(p, []string{sh.Addr()}, CoordinatorConfig{Codec: CodecGob, Controller: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.AssignNow(ctx); err != nil {
		t.Fatal(err)
	}

	compare := func(step string) {
		t.Helper()
		se, ce := single.Current(), co.Current()
		if se.Version != ce.Version {
			t.Fatalf("%s: version diverged: single %d, cluster %d", step, se.Version, ce.Version)
		}
		sm, cm := se.Schema.Matrix(), ce.Schema.Matrix()
		if !reflect.DeepEqual(sm, cm) {
			t.Fatalf("%s: placement matrices diverged at version %d", step, se.Version)
		}
		if so, com := se.Schema.TotalCost(), ce.Schema.TotalCost(); so != com {
			t.Fatalf("%s: OTC diverged: single %d, cluster %d", step, so, com)
		}
		for server := 0; server < p.M; server++ {
			for k := int32(0); k < int32(p.N); k += 7 { // stride keeps the sweep cheap
				sf, serr := single.Route(server, k)
				cf, cerr := co.Route(server, k)
				if (serr != nil) != (cerr != nil) {
					t.Fatalf("%s: route(%d,%d) error diverged: single %v, cluster %v", step, server, k, serr, cerr)
				}
				if serr == nil && sf != cf {
					t.Fatalf("%s: route(%d,%d) diverged: single %d, cluster %d", step, server, k, sf, cf)
				}
			}
		}
	}

	solveBoth := func(step string) {
		t.Helper()
		if err := single.SolveNow(ctx); err != nil {
			t.Fatalf("%s: single solve: %v", step, err)
		}
		if err := co.SolveNow(ctx); err != nil {
			t.Fatalf("%s: cluster solve: %v", step, err)
		}
		if sp, cp := single.LastSolvePayments(), co.LastSolvePayments(); !reflect.DeepEqual(sp, cp) {
			t.Fatalf("%s: payments diverged:\nsingle  %v\ncluster %v", step, sp, cp)
		}
		compare(step)
	}

	compare("init")
	solveBoth("initial solve")

	for i, batch := range demandTrace(p, 99, 6, 5) {
		step := fmt.Sprintf("batch %d", i)
		if _, err := single.ApplyDeltas(batch); err != nil {
			t.Fatalf("%s: single apply: %v", step, err)
		}
		if _, err := co.ApplyDeltas(batch); err != nil {
			t.Fatalf("%s: cluster apply: %v", step, err)
		}
		compare(step)
		if i%2 == 1 {
			solveBoth(step + " solve")
		}
	}

	// Membership churn: a server leaves and later rejoins. On the cluster
	// side this forces a re-partition (the coordinator ships fresh masked
	// state); the mirror must stay in lockstep with the single daemon
	// through both the eviction and the cold re-solve.
	victim := 3
	leave := []online.Delta{{Kind: online.KindServerLeave, Server: victim}}
	if _, err := single.ApplyDeltas(leave); err != nil {
		t.Fatal(err)
	}
	if _, err := co.ApplyDeltas(leave); err != nil {
		t.Fatal(err)
	}
	if got := co.AssignVersion(); got < 2 {
		t.Fatalf("membership delta did not re-partition: assign version %d", got)
	}
	compare("server leave")
	solveBoth("post-leave solve")

	join := []online.Delta{{Kind: online.KindServerJoin, Server: victim, Capacity: p.Capacity[victim]}}
	if _, err := single.ApplyDeltas(join); err != nil {
		t.Fatal(err)
	}
	if _, err := co.ApplyDeltas(join); err != nil {
		t.Fatal(err)
	}
	compare("server rejoin")
	solveBoth("post-rejoin solve")
}

// TestMultiShardClusterInvariants checks what a multi-shard cluster must
// preserve even though its placements legitimately differ from the single
// daemon's: every route answer serves from a server that actually holds the
// object, primaries are never lost, and the merged economics are coherent.
func TestMultiShardClusterInvariants(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(11))
	cfg := online.Config{Seed: 5}
	ctx := context.Background()

	const shards = 3
	var shs []*Shard
	var addrs []string
	for i := 0; i < shards; i++ {
		sh := NewShard(i, p.Cost, ShardConfig{Codec: CodecGob, Controller: cfg})
		sh.Serve(listen(t))
		defer sh.Close()
		shs = append(shs, sh)
		addrs = append(addrs, sh.Addr())
	}
	co, err := NewCoordinator(p, addrs, CoordinatorConfig{Codec: CodecGob, Controller: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.AssignNow(ctx); err != nil {
		t.Fatal(err)
	}

	// The partition must cover every server exactly once across the shards.
	seen := make([]int, p.M)
	total := 0
	for _, sh := range shs {
		sh.mu.Lock()
		members := append([]int32(nil), sh.members...)
		sh.mu.Unlock()
		for _, s := range members {
			seen[s]++
			total++
		}
	}
	if total != p.M {
		t.Fatalf("partition covers %d of %d servers", total, p.M)
	}
	for s, n := range seen {
		if n != 1 {
			t.Fatalf("server %d assigned to %d regions", s, n)
		}
	}

	for i, batch := range demandTrace(p, 17, 4, 6) {
		if _, err := co.ApplyDeltas(batch); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := co.SolveNow(ctx); err != nil {
		t.Fatal(err)
	}

	e := co.Current()
	matrix := e.Schema.Matrix()
	for k := 0; k < p.N; k++ {
		holders := map[int32]bool{}
		for _, s := range matrix[k] {
			holders[s] = true
		}
		if !holders[p.Work.Primary[k]] {
			t.Fatalf("object %d lost its primary %d in the merge", k, p.Work.Primary[k])
		}
	}
	for server := 0; server < p.M; server++ {
		for k := int32(0); k < int32(p.N); k += 5 {
			from, err := co.Route(server, k)
			if err != nil {
				t.Fatalf("route(%d,%d): %v", server, k, err)
			}
			found := false
			for _, s := range matrix[k] {
				if s == from {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("route(%d,%d) = %d, which holds no replica", server, k, from)
			}
		}
	}
	if e.Schema.TotalCost() > e.Schema.BaseCost() {
		t.Fatalf("merged OTC %d exceeds base %d", e.Schema.TotalCost(), e.Schema.BaseCost())
	}
	rep, err := co.MergeNow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regions != shards {
		t.Fatalf("merge saw %d regions, want %d", rep.Regions, shards)
	}
	if rep.Winner < 0 || rep.Winner >= shards {
		t.Fatalf("delegate game winner %d out of range", rep.Winner)
	}
}

// TestClusterCoordinatorCrashFallsBackAutonomous drives the degradation
// switch: a shard that loses its coordinator mid-stream must flip to
// autonomous mode, keep serving routes, and re-solve itself on drift — the
// paper's availability story — then rejoin hierarchical mode when the
// coordinator answers probes again.
func TestClusterCoordinatorCrashFallsBackAutonomous(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(13))
	ctx := context.Background()
	faults := &faultnet.Config{FailDial: map[int]bool{}}

	coLis := listen(t)
	cfg := online.Config{Seed: 9, DriftThreshold: 0.000001}
	sh := NewShard(0, p.Cost, ShardConfig{
		Codec:          CodecGob,
		Controller:     cfg,
		Coordinator:    coLis.Addr().String(),
		DeathThreshold: 2,
		Dial:           func(peer Peer) DialFunc { return FaultyDialer(faults, peer.ID) },
	})
	sh.Serve(listen(t))
	defer sh.Close()

	co, err := NewCoordinator(p, []string{sh.Addr()}, CoordinatorConfig{Codec: CodecGob, Controller: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	co.Serve(coLis)
	if err := co.AssignNow(ctx); err != nil {
		t.Fatal(err)
	}
	if err := co.SolveNow(ctx); err != nil {
		t.Fatal(err)
	}
	// The self-solve worker must be live for the degraded path; a huge probe
	// interval keeps the background failure detector out of the test's way
	// (probes are stepped explicitly).
	sh.Start(ctx, time.Hour)

	sh.ProbeCoordinator(ctx)
	if got := sh.Mode(); got != hierarchy.Hierarchical {
		t.Fatalf("mode with live coordinator = %v", got)
	}

	// Crash: the coordinator stops answering. Two failed probe rounds cross
	// DeathThreshold and flip the shard to autonomous.
	faults.FailDial[0] = true
	sh.coord.Client(0).Close() // drop the cached conn so the next probe redials
	sh.ProbeCoordinator(ctx)
	if got := sh.Mode(); got != hierarchy.Hierarchical {
		t.Fatalf("one missed probe already degraded the shard: %v", got)
	}
	sh.ProbeCoordinator(ctx)
	if got := sh.Mode(); got != hierarchy.Autonomous {
		t.Fatalf("mode after coordinator death = %v, want autonomous", got)
	}

	// Degraded service: deltas posted straight to the shard still apply, the
	// drift trigger kicks the self-solve worker, and routes keep answering.
	backend := sh.Backend()
	v0 := sh.controller().Current().Version
	// Drift only counts savings *drops*, so aim heavy writes at a replicated
	// object: update traffic makes its replicas expensive and the carried
	// placement's savings fall.
	target := int32(-1)
	for k, row := range sh.controller().Current().Schema.Matrix() {
		if len(row) > 1 {
			target = int32(k)
			break
		}
	}
	if target < 0 {
		t.Fatal("solved placement holds no replicas to drift against")
	}
	a, err := backend.ApplyDeltas([]online.Delta{
		{Kind: online.KindDemand, Server: 1, Object: target, Writes: 100000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !a.SolveScheduled {
		t.Fatalf("heavy write delta did not schedule a solve (drift %v)", a.Drift)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sh.controller().Current().Version < v0+2 { // +1 delta epoch, +1 self-solve epoch
		if time.Now().After(deadline) {
			t.Fatalf("autonomous self-solve never published (version %d)", sh.controller().Current().Version)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := backend.Route(1, 0); err != nil {
		t.Fatalf("degraded shard stopped routing: %v", err)
	}

	// Recovery: the coordinator answers again, one good probe resurrects it
	// and the shard returns to hierarchical mode.
	delete(faults.FailDial, 0)
	sh.ProbeCoordinator(ctx)
	if got := sh.Mode(); got != hierarchy.Hierarchical {
		t.Fatalf("mode after coordinator recovery = %v, want hierarchical", got)
	}
}

// TestClusterShardEvictionRepartitions drives the other half of the fault
// matrix: a shard dies, the coordinator's failure detector evicts it, the
// next assignment re-partitions the full server set over the survivors, and
// the stale generation is fenced out.
func TestClusterShardEvictionRepartitions(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(19))
	cfg := online.Config{Seed: 3}
	ctx := context.Background()

	sh0 := NewShard(0, p.Cost, ShardConfig{Codec: CodecGob, Controller: cfg})
	sh0.Serve(listen(t))
	defer sh0.Close()
	sh1 := NewShard(1, p.Cost, ShardConfig{Codec: CodecGob, Controller: cfg})
	sh1.Serve(listen(t))

	co, err := NewCoordinator(p, []string{sh0.Addr(), sh1.Addr()}, CoordinatorConfig{
		Codec: CodecGob, Controller: cfg, DeathThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.AssignNow(ctx); err != nil {
		t.Fatal(err)
	}
	if err := co.SolveNow(ctx); err != nil {
		t.Fatal(err)
	}
	if sh0.AssignVersion() != 1 || sh1.AssignVersion() != 1 {
		t.Fatalf("assign versions after first assignment: %d, %d", sh0.AssignVersion(), sh1.AssignVersion())
	}
	// Remember a server shard 1 owns, to target deltas at after the crash.
	sh1.mu.Lock()
	orphan := int(sh1.members[0])
	sh1.mu.Unlock()

	// Crash shard 1 for real: its endpoint closes, every future dial is
	// refused.
	sh1.Close()

	// A delta for the dead shard's region: the mirror absorbs it (source of
	// truth), the forward fails and feeds the failure detector.
	if _, err := co.ApplyDeltas([]online.Delta{
		{Kind: online.KindDemand, Server: orphan, Object: 0, Reads: 50},
	}); err != nil {
		t.Fatal(err)
	}
	co.mu.Lock()
	forwardErrors := co.forwardErrors
	co.mu.Unlock()
	if forwardErrors == 0 {
		t.Fatal("failed forward to the dead shard was not counted")
	}

	// Probe rounds cross the threshold and evict it.
	co.membership.ProbeOnce(ctx)
	co.membership.ProbeOnce(ctx)
	if got := co.membership.State(1); got != Dead {
		t.Fatalf("dead shard state = %v", got)
	}

	// Re-partition: the survivor takes the whole server set at a fresh
	// generation.
	if err := co.AssignNow(ctx); err != nil {
		t.Fatal(err)
	}
	if got := sh0.AssignVersion(); got < 2 {
		t.Fatalf("survivor still on generation %d after re-partition", got)
	}
	sh0.mu.Lock()
	members := len(sh0.members)
	sh0.mu.Unlock()
	if members != p.M {
		t.Fatalf("survivor owns %d of %d servers after eviction", members, p.M)
	}

	// The cluster still solves and routes with one region.
	if err := co.SolveNow(ctx); err != nil {
		t.Fatal(err)
	}
	for server := 0; server < p.M; server++ {
		if _, err := co.Route(server, 0); err != nil {
			t.Fatalf("route(%d,0) after eviction: %v", server, err)
		}
	}

	// Generation fencing: a delta batch stamped with the pre-eviction
	// assignment must be rejected by the survivor.
	cl := NewClient(sh0.Addr(), CodecGob, nil)
	defer cl.Close()
	err = cl.Call(ctx, MethodDeltas, &DeltasRequest{
		Assign: 1,
		Deltas: []online.Delta{{Kind: online.KindDemand, Server: 0, Object: 0, Reads: 1}},
	}, nil)
	var remote *RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "assignment") {
		t.Fatalf("stale-generation batch not fenced: %v", err)
	}
}

// TestShardRejectsForeignAndMembershipDeltas pins the ownership guards: a
// shard must refuse demand for servers outside its region and any
// join/leave delta (membership is the coordinator's job).
func TestShardRejectsForeignAndMembershipDeltas(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(23))
	cfg := online.Config{Seed: 1}
	ctx := context.Background()

	sh0 := NewShard(0, p.Cost, ShardConfig{Codec: CodecGob, Controller: cfg})
	sh0.Serve(listen(t))
	defer sh0.Close()
	sh1 := NewShard(1, p.Cost, ShardConfig{Codec: CodecGob, Controller: cfg})
	sh1.Serve(listen(t))
	defer sh1.Close()

	co, err := NewCoordinator(p, []string{sh0.Addr(), sh1.Addr()}, CoordinatorConfig{Codec: CodecGob, Controller: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.AssignNow(ctx); err != nil {
		t.Fatal(err)
	}

	sh1.mu.Lock()
	foreign := int(sh1.members[0])
	sh1.mu.Unlock()

	if _, err := sh0.applyGuarded(0, []online.Delta{
		{Kind: online.KindDemand, Server: foreign, Object: 0, Reads: 1},
	}); err == nil {
		t.Fatal("shard accepted demand for a server it does not own")
	}
	if _, err := sh0.applyGuarded(0, []online.Delta{
		{Kind: online.KindServerLeave, Server: 0},
	}); err == nil {
		t.Fatal("shard accepted a membership delta")
	}
}

// TestClusterSolveCountsForwardErrors pins the forward-error accounting on
// the solve path: a shard that dies after assignment fails its solve RPC
// (and its placement pull), and each failure must show in forward_errors
// even though the surviving shard solved and the cluster solve succeeds.
func TestClusterSolveCountsForwardErrors(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(29))
	cfg := online.Config{Seed: 4}
	ctx := context.Background()

	sh0 := NewShard(0, p.Cost, ShardConfig{Codec: CodecGob, Controller: cfg})
	sh0.Serve(listen(t))
	defer sh0.Close()
	sh1 := NewShard(1, p.Cost, ShardConfig{Codec: CodecGob, Controller: cfg})
	sh1.Serve(listen(t))

	co, err := NewCoordinator(p, []string{sh0.Addr(), sh1.Addr()}, CoordinatorConfig{Codec: CodecGob, Controller: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.AssignNow(ctx); err != nil {
		t.Fatal(err)
	}
	sh1.Close()
	if err := co.SolveNow(ctx); err != nil {
		t.Fatalf("solve with one live shard: %v", err)
	}
	if got := co.Status(ctx).ForwardErrors; got < 1 {
		t.Fatalf("forward_errors = %d after a shard failed its solve", got)
	}
}

// TestClusterMergeMemo pins the merge memo's contract on a 2-shard cluster:
// with no deltas in between, a re-solve lands on the same regional
// placements, so the merge returns the previous report and publishes no
// mirror epoch; a bare MergeNow does the same; a delta batch moves the
// mirror, and the next merge installs afresh.
func TestClusterMergeMemo(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(31))
	cfg := online.Config{Seed: 6}
	ctx := context.Background()

	var addrs []string
	for i := 0; i < 2; i++ {
		sh := NewShard(i, p.Cost, ShardConfig{Codec: CodecGob, Controller: cfg})
		sh.Serve(listen(t))
		defer sh.Close()
		addrs = append(addrs, sh.Addr())
	}
	co, err := NewCoordinator(p, addrs, CoordinatorConfig{Codec: CodecGob, Controller: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.AssignNow(ctx); err != nil {
		t.Fatal(err)
	}
	if err := co.SolveNow(ctx); err != nil {
		t.Fatal(err)
	}
	first := co.Current().Version
	rep, err := co.MergeNow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != first || rep.Regions != 2 || rep.OTC != co.Current().Schema.TotalCost() {
		t.Fatalf("merge report %+v does not describe the installed epoch %d", rep, first)
	}

	merges := co.Phases().Merges
	if err := co.SolveNow(ctx); err != nil {
		t.Fatal(err)
	}
	if got := co.Current().Version; got != first {
		t.Fatalf("re-solve with no deltas published epoch %d after %d", got, first)
	}
	if got := co.Phases().Merges; got != merges+1 {
		t.Fatalf("re-solve ran %d merges, want 1", got-merges)
	}
	again, err := co.MergeNow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, rep) {
		t.Fatalf("memoized merge report changed:\nfirst %+v\nagain %+v", rep, again)
	}
	if got := co.Current().Version; got != first {
		t.Fatalf("memoized merge published epoch %d after %d", got, first)
	}

	if _, err := co.ApplyDeltas(demandTrace(p, 37, 1, 4)[0]); err != nil {
		t.Fatal(err)
	}
	moved := co.Current().Version
	if moved <= first {
		t.Fatalf("delta batch left the mirror at version %d", moved)
	}
	fresh, err := co.MergeNow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Version != moved+1 || co.Current().Version != moved+1 {
		t.Fatalf("merge after deltas installed version %d (mirror %d), want %d", fresh.Version, co.Current().Version, moved+1)
	}
}

// TestExchangeBordersManyRegions drives the boundary exchange with more
// contributing regions than a signed byte counts: 128 single-server regions
// each hold a surplus replica of one heavily written object, so every
// replica costs more in update broadcasts than it saves in reads, and the
// exchange must drop them all.
func TestExchangeBordersManyRegions(t *testing.T) {
	const regions = 128
	m := regions + 2 // primary holder, the regions' servers, one writer
	w := workload.New(m, 1)
	w.ObjectSize[0] = 1
	for s := 1; s <= regions; s++ {
		w.PerServer[s] = []workload.Demand{{Object: 0, Reads: 1}}
	}
	w.PerServer[m-1] = []workload.Demand{{Object: 0, Writes: 1000}}
	w.Finalize()
	capacity := make([]int64, m)
	for s := range capacity {
		capacity[s] = 10
	}
	p, err := replication.NewProblem(replication.UniformCost{Nodes: m, Weight: 10}, w, capacity)
	if err != nil {
		t.Fatal(err)
	}

	var parts []regionPart
	merged := [][]int32{{0}}
	for s := int32(1); s <= regions; s++ {
		parts = append(parts, regionPart{
			shard:   int(s),
			members: []int32{s},
			matrix:  [][]int32{{0, s}},
			border:  []globalAd{{object: 0, server: s, gain: 5}},
		})
		merged[0] = append(merged[0], s)
	}
	carried, dropped := p.CarryOver(merged)
	if dropped != 0 {
		t.Fatalf("carry dropped %d replicas", dropped)
	}
	before := carried.TotalCost()
	recovered, borderDropped, _ := exchangeBorders(carried, p, parts)
	if borderDropped != regions {
		t.Fatalf("exchange dropped %d of %d redundant replicas", borderDropped, regions)
	}
	if recovered <= 0 || before-carried.TotalCost() != recovered {
		t.Fatalf("recovered %d, OTC fell from %d to %d", recovered, before, carried.TotalCost())
	}
}
