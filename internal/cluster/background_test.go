package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/online"
	"repro/internal/testutil"
)

// waitUntil polls cond every few milliseconds until it holds or ten seconds
// pass.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoordinatorDriftSolvesInBackground drives the coordinator's
// drift-triggered loop: a batch that pushes the merged placement's drift
// past the threshold runs exactly one cluster solve, with nobody calling
// SolveNow.
func TestCoordinatorDriftSolvesInBackground(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(13))
	cfg := online.Config{Seed: 9, DriftThreshold: 0.000001, SolveDebounce: time.Millisecond}
	co, _ := newTestCluster(t, p, cfg, 2)
	ctx := context.Background()
	if err := co.SolveNow(ctx); err != nil {
		t.Fatal(err)
	}
	co.Start(ctx, time.Hour)
	solves := co.Phases().Solves

	// Heavy writes on a replicated object make its replicas expensive, so
	// the merged placement's savings fall and the batch crosses the
	// threshold.
	target := int32(-1)
	for k, row := range co.Current().Schema.Matrix() {
		if len(row) > 1 {
			target = int32(k)
			break
		}
	}
	if target < 0 {
		t.Fatal("merged placement holds no replicas to drift against")
	}
	a, err := co.ApplyDeltas([]online.Delta{{Kind: online.KindDemand, Server: 1, Object: target, Writes: 100000}})
	if err != nil {
		t.Fatal(err)
	}
	if !a.SolveScheduled {
		t.Fatalf("heavy write on object %d did not schedule a solve (drift %v)", target, a.Drift)
	}
	waitUntil(t, "the drift solve ran", func() bool { return co.Phases().Solves > solves })
	time.Sleep(100 * time.Millisecond)
	if got := co.Phases().Solves - solves; got != 1 {
		t.Fatalf("one drift-crossing batch ran %d cluster solves, want 1", got)
	}
	if got := co.Status(ctx).LastError; got != "" {
		t.Fatalf("background solve failed: %s", got)
	}
}

// TestCoordinatorRepartitionsDeadShard drives the coordinator's probe and
// re-partition loops: once the probes declare a shard Dead, the survivor is
// re-assigned the whole server set with nobody calling AssignNow; once no
// shard is left, the failed re-partition shows in the status's last error.
func TestCoordinatorRepartitionsDeadShard(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(19))
	co, shs := newTestCluster(t, p, online.Config{Seed: 3}, 2)
	ctx := context.Background()
	co.Start(ctx, 10*time.Millisecond)

	shs[1].Close()
	waitUntil(t, "the survivor holds every server", func() bool {
		shs[0].mu.Lock()
		defer shs[0].mu.Unlock()
		return shs[0].assignVer > 1 && len(shs[0].region.Members) == p.M
	})
	if err := co.SolveNow(ctx); err != nil {
		t.Fatalf("solve after the re-partition: %v", err)
	}

	shs[0].Close()
	waitUntil(t, "the failed re-partition is reported", func() bool {
		return strings.Contains(co.Status(ctx).LastError, "no live shards")
	})
}
