package main

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/online"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/sim"
)

// clusterArgs carries the -cluster* flag values into the role runners.
type clusterArgs struct {
	role          string // "coordinator" | "shard"
	rpcAddr       string // cluster-plane listen address
	httpAddr      string // HTTP API listen address
	pprof         bool   // serve net/http/pprof beside the API
	shardID       int
	peers         string // coordinator: comma-separated shard RPC addresses
	coordinator   string // shard: the coordinator's RPC address
	codec         cluster.Codec
	probeInterval time.Duration
	scenario      sim.Generator
	scenarioTick  time.Duration
}

// runClusterMode dispatches on the daemon's cluster role. Both roles serve
// the single daemon's full HTTP surface (the coordinator from the merged
// mirror, a shard from its regional controller) plus GET /cluster for the
// membership/assignment view.
func runClusterMode(ctx context.Context, p *replication.Problem, ccfg online.Config, a clusterArgs) error {
	switch a.role {
	case "coordinator":
		return runCoordinator(ctx, p, ccfg, a)
	case "shard":
		return runShard(ctx, p, ccfg, a)
	default:
		return fmt.Errorf("unknown -cluster role %q (want coordinator|shard)", a.role)
	}
}

func runCoordinator(ctx context.Context, p *replication.Problem, ccfg online.Config, a clusterArgs) error {
	addrs := strings.Split(a.peers, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	if len(addrs) == 0 || addrs[0] == "" {
		return fmt.Errorf("-cluster coordinator needs -peers (comma-separated shard RPC addresses)")
	}
	co, err := cluster.NewCoordinator(p, addrs, cluster.CoordinatorConfig{
		Codec:      a.codec,
		Controller: ccfg,
	})
	if err != nil {
		return err
	}
	defer co.Close()
	lis, err := net.Listen("tcp", a.rpcAddr)
	if err != nil {
		return fmt.Errorf("cluster RPC listen %s: %w", a.rpcAddr, err)
	}
	co.Serve(lis)
	logf("coordinator RPC on %s, %d shard(s): %s", co.Addr(), len(addrs), strings.Join(addrs, ", "))

	// Shards may still be starting: retry the first formation every second
	// until every configured shard holds a region (daemon start order must
	// not matter).
	for {
		err := co.Form(ctx)
		if err == nil {
			break
		}
		logf("waiting for shards: %v", err)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Second):
		}
	}
	logf("assigned generation %d, running initial cluster solve...", co.AssignVersion())
	if err := co.SolveNow(ctx); err != nil {
		return fmt.Errorf("initial cluster solve: %w", err)
	}
	m := co.Metrics()
	logf("solved: OTC %d, %.2f%% savings, %d replicas", m.OTC, m.Savings, m.Replicas)
	co.Start(ctx, a.probeInterval)

	if a.scenario != nil {
		driveScenario(ctx, a.scenario, a.scenarioTick, co.ApplyDeltas)
	}

	api := server.New(co)
	api.Extend("GET /cluster", co.HTTPHandler())
	return serveHTTP(ctx, a.httpAddr, api, "coordinator", a.pprof)
}

func runShard(ctx context.Context, p *replication.Problem, ccfg online.Config, a clusterArgs) error {
	sh := cluster.NewShard(a.shardID, p.Cost, cluster.ShardConfig{
		Codec:       a.codec,
		Controller:  ccfg,
		Coordinator: a.coordinator,
	})
	defer sh.Close()
	lis, err := net.Listen("tcp", a.rpcAddr)
	if err != nil {
		return fmt.Errorf("cluster RPC listen %s: %w", a.rpcAddr, err)
	}
	sh.Serve(lis)
	sh.Start(ctx, a.probeInterval)
	logf("shard %d RPC on %s (coordinator %s), waiting for assignment...", a.shardID, sh.Addr(), a.coordinator)
	if err := sh.WaitAssigned(ctx); err != nil {
		return err
	}
	logf("assigned generation %d (%s mode)", sh.AssignVersion(), sh.Mode())

	api := server.New(sh.Backend())
	api.Extend("GET /cluster", sh.HTTPHandler())
	return serveHTTP(ctx, a.httpAddr, api, fmt.Sprintf("shard %d", a.shardID), a.pprof)
}
