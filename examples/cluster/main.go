// Cluster walkthrough: the semi-distributed architecture of the paper run
// as a 3-shard cluster in one process. A coordinator partitions the servers
// into regions by communication-cost proximity and ships each region to a
// shard daemon over the RPC plane; every shard runs its own regional
// AGT-RAM game concurrently; the coordinator merges the regional
// placements (their union, then a boundary-replica exchange that drops the
// copies another region's replica makes redundant) and serves the merged
// placement.
//
// The second half is the failure story: the coordinator goes silent, the
// shards' failure detectors notice, and each shard degrades to autonomous
// mode — re-solving its own region on drift, exactly like a single daemon —
// until the coordinator comes back and the hierarchy re-forms.
//
// Everything runs over real loopback TCP: the same wire protocol, framing
// and membership probes the multi-process deployment uses (see the README's
// cluster quickstart for the agtramd flags).
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	_ "repro/internal/agtram"
	"repro/internal/cluster"
	"repro/internal/hierarchy"
	"repro/internal/online"
	"repro/internal/replication"
	"repro/internal/testutil"
)

const shards = 3

func main() {
	ctx := context.Background()

	// One global instance: M servers, N objects, the communication-cost
	// oracle both sides construct from the shared configuration (only
	// runtime state crosses the wire).
	p := testutil.MustBuild(testutil.InstanceConfig{
		Servers: 24, Objects: 120, Requests: 7200,
		RWRatio: 0.9, CapacityPercent: 25, EdgeP: 0.3, Seed: 7,
	})
	fmt.Printf("instance: M=%d servers, N=%d objects\n\n", p.M, p.N)

	// --- 1. Bring up the shard daemons. The coordinator's listener is
	// bound first so every shard's failure detector has a live top level to
	// probe; each shard listens on loopback and waits for the coordinator's
	// first assignment.
	coLis := listen()
	ctrlCfg := online.Config{Method: "agt-ram", Seed: 7, DriftThreshold: 1.0}
	var (
		shs   [shards]*cluster.Shard
		addrs [shards]string
	)
	for i := 0; i < shards; i++ {
		shs[i] = cluster.NewShard(i, p.Cost, cluster.ShardConfig{
			Codec:       cluster.CodecGob,
			Controller:  ctrlCfg,
			Coordinator: coLis.Addr().String(),
		})
		lis := listen()
		shs[i].Serve(lis)
		addrs[i] = shs[i].Addr()
		defer shs[i].Close()
	}

	// --- 2. The coordinator: global mirror + partitioner + merge.
	co, err := cluster.NewCoordinator(p, addrs[:], cluster.CoordinatorConfig{
		Codec:      cluster.CodecGob,
		Controller: ctrlCfg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer co.Close()
	co.Serve(coLis)

	// --- 3. Form the cluster: partition servers into regions, ship each
	// shard the mirror's state masked to its region, run the regional
	// games, merge their placements.
	if err := co.AssignNow(ctx); err != nil {
		log.Fatal(err)
	}
	st := co.Status(ctx)
	fmt.Printf("assignment generation %d:\n", st.AssignVersion)
	for _, sh := range st.Shards {
		fmt.Printf("  shard %d @ %s: %d servers, %s, %s mode\n",
			sh.ID, sh.Addr, sh.Members, sh.State, sh.Mode)
	}
	if err := co.SolveNow(ctx); err != nil {
		log.Fatal(err)
	}
	m := co.Metrics()
	fmt.Printf("\ncluster solve: OTC %d (base %d), %.2f%% savings, %d replicas\n\n",
		m.OTC, m.BaseOTC, m.Savings, m.Replicas)

	// --- 4. Live traffic: deltas hit the coordinator, which forwards each
	// to the shard that owns the target server (every region holds every
	// object; only an add-object or a new server id re-assigns); a re-solve
	// runs every region's game on its updated demand and merges the
	// outcomes back into the global placement.
	fmt.Println("applying a read flash crowd on objects 0..9...")
	var ds []online.Delta
	for k := int32(0); k < 10; k++ {
		ds = append(ds, online.Delta{Kind: online.KindDemand, Server: 3, Object: k, Reads: 400})
	}
	a, err := co.ApplyDeltas(ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  applied %d deltas -> epoch %d, drift %.2f\n", a.Applied, a.Version, a.Drift)
	if err := co.SolveNow(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  re-solve -> epoch %d, %.2f%% savings\n\n",
		co.Current().Version, co.Metrics().Savings)

	// Routing answers come from the merged placement, which only the
	// coordinator serves. A shard answers from its own regional placement:
	// the merge's boundary exchange moves replicas across regions without
	// writing them back, so a shard's answer can differ. Clients route
	// against the coordinator.
	from, _ := co.Route(3, 0)
	fmt.Printf("route(server 3, object 0) = server %d (coordinator, merged placement)\n", from)
	for i := 0; i < shards; i++ {
		if f, err := shs[i].Backend().Route(3, 0); err == nil {
			fmt.Printf("route(server 3, object 0) = server %d (shard %d, regional placement)\n", f, i)
		}
	}

	// --- 5. The failure story. A fresh shard is wired to a coordinator
	// address that stops answering: its failure detector marks the top
	// level dead and the shard switches to autonomous mode, re-solving its
	// own region on drift like a single daemon.
	fmt.Println("\n--- coordinator failure ---")
	demoFailover(ctx, p, ctrlCfg)
}

// demoFailover runs the degradation switch in miniature: one shard, one
// coordinator, the coordinator crashes, the shard notices and degrades.
func demoFailover(ctx context.Context, p *replication.Problem, ctrlCfg online.Config) {
	coLis := listen()
	sh := cluster.NewShard(0, p.Cost, cluster.ShardConfig{
		Codec:          cluster.CodecGob,
		Controller:     ctrlCfg,
		Coordinator:    coLis.Addr().String(),
		DeathThreshold: 2,
		ProbeTimeout:   200 * time.Millisecond,
	})
	defer sh.Close()
	sh.Serve(listen())

	co, err := cluster.NewCoordinator(p, []string{sh.Addr()}, cluster.CoordinatorConfig{
		Codec: cluster.CodecGob, Controller: ctrlCfg,
	})
	if err != nil {
		log.Fatal(err)
	}
	co.Serve(coLis)
	if err := co.AssignNow(ctx); err != nil {
		log.Fatal(err)
	}
	if err := co.SolveNow(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shard mode with a live coordinator: %s\n", sh.Mode())

	// Crash the top level: close it and let the shard's probes fail past
	// the death threshold.
	co.Close()
	for i := 0; i < 3 && sh.Mode() != hierarchy.Autonomous; i++ {
		sh.ProbeCoordinator(ctx)
	}
	fmt.Printf("after the coordinator crash: %s mode\n", sh.Mode())
	fmt.Println("the shard now re-solves its own region on drift, like a single daemon")
}

func listen() net.Listener {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	return lis
}
