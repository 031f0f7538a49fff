package cluster

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/online"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// newTestCluster starts shards on loopback TCP and a coordinator over them,
// and forms the first assignment. Everything closes when the test ends.
func newTestCluster(t *testing.T, p *replication.Problem, cfg online.Config, shards int) (*Coordinator, []*Shard) {
	t.Helper()
	var shs []*Shard
	var addrs []string
	for i := 0; i < shards; i++ {
		sh := NewShard(i, p.Cost, ShardConfig{Codec: CodecGob, Controller: cfg})
		sh.Serve(listen(t))
		t.Cleanup(sh.Close)
		shs = append(shs, sh)
		addrs = append(addrs, sh.Addr())
	}
	co, err := NewCoordinator(p, addrs, CoordinatorConfig{Codec: CodecGob, Controller: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	if err := co.AssignNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	return co, shs
}

// TestForwardedDeltasMatchReassignment is the forwarding rule's differential
// test. Two clusters take the same scenario batches: one forwards every
// delta a live region owns, the other also re-assigns after every batch, so
// its shards always run a fresh mask. A region that took forwarded deltas
// differs from a fresh mask only in other regions' activity flags, which
// the materialized instance does not see, so after every solve both
// clusters must install the same merged placement, OTC and payments.
func TestForwardedDeltasMatchReassignment(t *testing.T) {
	for _, inst := range []struct {
		name string
		cfg  testutil.InstanceConfig
	}{{"small", testutil.Small(5)}, {"medium", testutil.Medium(5)}} {
		p := testutil.MustBuild(inst.cfg)
		for _, shards := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", inst.name, shards), func(t *testing.T) {
				testutil.LeakCheck(t)
				ctx := context.Background()
				cfg := online.Config{Seed: 11}
				fwd, _ := newTestCluster(t, p, cfg, shards)
				ref, _ := newTestCluster(t, p, cfg, shards)

				solveBoth := func(step string) {
					t.Helper()
					for _, co := range []*Coordinator{fwd, ref} {
						if err := co.SolveNow(ctx); err != nil {
							t.Fatalf("%s: solve: %v", step, err)
						}
					}
					fe, re := fwd.Current().Schema, ref.Current().Schema
					if !reflect.DeepEqual(fe.Matrix(), re.Matrix()) {
						t.Fatalf("%s: merged placements diverged", step)
					}
					if fo, ro := fe.TotalCost(), re.TotalCost(); fo != ro {
						t.Fatalf("%s: OTC diverged: forwarding %d, re-assigning %d", step, fo, ro)
					}
					if fp, rp := fwd.LastSolvePayments(), ref.LastSolvePayments(); !reflect.DeepEqual(fp, rp) {
						t.Fatalf("%s: payments diverged:\nforwarding   %v\nre-assigning %v", step, fp, rp)
					}
				}

				solveBoth("initial")
				var membership, forwarded int
				for cycle := int64(1); cycle <= 2; cycle++ {
					for _, g := range sim.ScenarioMatrix(sim.ShapeOf(p), cycle) {
						for tick := 0; tick < g.Ticks(); tick++ {
							batch := g.Batch(tick)
							if len(batch) == 0 {
								continue
							}
							step := fmt.Sprintf("cycle %d %s tick %d", cycle, g.Name(), tick)
							gen := fwd.AssignVersion()
							for _, co := range []*Coordinator{fwd, ref} {
								if _, err := co.ApplyDeltas(batch); err != nil {
									t.Fatalf("%s: apply: %v", step, err)
								}
							}
							if err := ref.AssignNow(ctx); err != nil {
								t.Fatalf("%s: re-assign: %v", step, err)
							}
							if slices.ContainsFunc(batch, func(d online.Delta) bool {
								return d.Kind == online.KindServerJoin || d.Kind == online.KindServerLeave
							}) {
								membership++
								if fwd.AssignVersion() == gen {
									forwarded++
								}
							}
							solveBoth(step)
						}
					}
				}
				if got := fwd.Status(ctx).ForwardErrors; got != 0 {
					t.Fatalf("forwarding cluster counted %d forward errors", got)
				}
				if forwarded*2 <= membership {
					t.Fatalf("only %d of %d membership batches were forwarded", forwarded, membership)
				}
				t.Logf("%d of %d membership batches forwarded; %d re-assignments in all", forwarded, membership, fwd.AssignVersion()-1)
			})
		}
	}
}

// TestClusterAddObjectReassigns drives catalogue growth through a 3-shard
// coordinator. An add-object re-assigns, since no region holds the new id;
// demand for the object is then forwarded, from its primary's region and
// from any other. The merge stays valid and every route to the object
// answers from a server that holds it.
func TestClusterAddObjectReassigns(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(43))
	co, _ := newTestCluster(t, p, online.Config{Seed: 2}, 3)
	ctx := context.Background()
	if err := co.SolveNow(ctx); err != nil {
		t.Fatal(err)
	}

	co.mu.Lock()
	regionOf := append([]int32(nil), co.regionOf...)
	co.mu.Unlock()
	const primary = 0
	mate, other := -1, -1
	for s := 1; s < p.M; s++ {
		switch {
		case regionOf[s] == regionOf[primary] && mate < 0:
			mate = s
		case regionOf[s] != regionOf[primary] && other < 0:
			other = s
		}
	}
	if mate < 0 || other < 0 {
		t.Fatalf("partition %v gives no region-mate and no foreign server for server %d", regionOf, primary)
	}

	apply := func(ds []online.Delta, reassign bool) {
		t.Helper()
		gen := co.AssignVersion()
		if _, err := co.ApplyDeltas(ds); err != nil {
			t.Fatal(err)
		}
		if got := co.AssignVersion() != gen; got != reassign {
			t.Fatalf("%v: re-assigned %v, want %v", ds, got, reassign)
		}
	}
	obj := int32(p.N)
	apply([]online.Delta{{Kind: online.KindAddObject, Size: 1, Primary: primary}}, true)
	apply([]online.Delta{{Kind: online.KindDemand, Server: mate, Object: obj, Reads: 400}}, false)
	apply([]online.Delta{{Kind: online.KindDemand, Server: other, Object: obj, Reads: 400}}, false)
	if err := co.SolveNow(ctx); err != nil {
		t.Fatal(err)
	}
	if got := co.Status(ctx).ForwardErrors; got != 0 {
		t.Fatalf("%d forward errors", got)
	}

	e := co.Current()
	if e.Problem.N != p.N+1 {
		t.Fatalf("merged instance has %d objects, want %d", e.Problem.N, p.N+1)
	}
	if err := e.Schema.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
	holders := e.Schema.Replicas(obj)
	for server := 0; server < p.M; server++ {
		from, err := co.Route(server, obj)
		if err != nil {
			t.Fatalf("route(%d,%d): %v", server, obj, err)
		}
		if !slices.Contains(holders, from) {
			t.Fatalf("route(%d,%d) = %d, which holds no replica of %v", server, obj, from, holders)
		}
	}
}

// TestShardSelfSolveDebounced pins the autonomous self-solve to the
// controller's SolveDebounce, like the single daemon's drift loop: with an
// hour's debounce, a second drift-crossing post after the first self-solve
// queues a solve but does not run it.
func TestShardSelfSolveDebounced(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(13))
	cfg := online.Config{Seed: 9, DriftThreshold: 0.000001, SolveDebounce: time.Hour}
	co, shs := newTestCluster(t, p, cfg, 1) // no coordinator address: autonomous from the start
	ctx := context.Background()
	if err := co.SolveNow(ctx); err != nil {
		t.Fatal(err)
	}
	sh := shs[0]
	sh.Start(ctx, time.Hour)
	ctrl := sh.controller()
	solves := func() int64 { return ctrl.Metrics().SolvesRun }

	// Heavy writes on a replicated object make its replicas expensive, so the
	// carried placement's savings fall and the post crosses the threshold.
	post := func() {
		t.Helper()
		for k, row := range ctrl.Current().Schema.Matrix() {
			if len(row) < 2 {
				continue
			}
			a, err := sh.Backend().ApplyDeltas([]online.Delta{{Kind: online.KindDemand, Server: 1, Object: int32(k), Writes: 100000}})
			if err != nil {
				t.Fatal(err)
			}
			if !a.SolveScheduled {
				t.Fatalf("heavy write on object %d did not schedule a solve (drift %v)", k, a.Drift)
			}
			return
		}
		t.Fatal("placement holds no replicas to drift against")
	}

	before := solves()
	post()
	deadline := time.Now().Add(10 * time.Second)
	for solves() == before {
		if time.Now().After(deadline) {
			t.Fatal("the first self-solve never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	post()
	time.Sleep(300 * time.Millisecond)
	if got := solves() - before; got != 1 {
		t.Fatalf("%d self-solves inside one debounce window, want 1", got)
	}
}
