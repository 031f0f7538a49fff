package online

import (
	"context"
	"reflect"
	"testing"
	"time"

	_ "repro/internal/agtram" // register the agt-ram solver
	"repro/internal/replication"
	"repro/internal/solver"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/workload"
)

// demandDiff computes the per-(server,object) demand deltas that turn a
// into b. Both workloads must share shape, catalogue and primaries.
func demandDiff(a, b *workload.Workload) []Delta {
	type cell struct{ reads, writes int64 }
	var out []Delta
	for i := 0; i < a.M; i++ {
		have := map[int32]cell{}
		for _, d := range a.PerServer[i] {
			have[d.Object] = cell{d.Reads, d.Writes}
		}
		want := map[int32]cell{}
		for _, d := range b.PerServer[i] {
			want[d.Object] = cell{d.Reads, d.Writes}
		}
		for k := int32(0); int(k) < a.N; k++ {
			h, w := have[k], want[k]
			if h == w {
				continue
			}
			out = append(out, Delta{
				Kind: KindDemand, Server: i, Object: k,
				Reads: w.reads - h.reads, Writes: w.writes - h.writes,
			})
		}
	}
	return out
}

// TestDifferentialDeltasVsMaterialized is the delta-semantics property test:
// feeding the controller the demand diff and re-solving must land on exactly
// the placement a direct solve of the materialized final problem produces.
// Cold solves are deterministic in the instance, so equality is exact.
func TestDifferentialDeltasVsMaterialized(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		cfg := testutil.Small(seed)
		p1 := testutil.MustBuild(cfg)
		w2, err := workload.Synthetic(workload.SyntheticConfig{
			Servers: cfg.Servers, Objects: cfg.Objects, Requests: cfg.Requests,
			RWRatio: cfg.RWRatio, Seed: cfg.Seed, DemandSeed: cfg.Seed + 1000,
		})
		if err != nil {
			t.Fatal(err)
		}

		ctrl, err := New(p1.Cost, p1.Work, p1.Capacity, Config{})
		if err != nil {
			t.Fatal(err)
		}
		diff := demandDiff(p1.Work, w2)
		if len(diff) == 0 {
			t.Fatalf("seed %d: demand diff is empty, test is vacuous", seed)
		}
		if _, err := ctrl.ApplyDeltas(diff); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.SolveNow(context.Background()); err != nil {
			t.Fatal(err)
		}

		p2, err := replication.NewProblem(p1.Cost, w2, p1.Capacity)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := solver.Lookup("agt-ram")
		direct, err := s.Solve(context.Background(), p2, solver.Options{})
		if err != nil {
			t.Fatal(err)
		}

		got := ctrl.Current().Schema
		if got.TotalCost() != direct.Schema.TotalCost() {
			t.Fatalf("seed %d: deltas-then-solve OTC %d != direct solve OTC %d",
				seed, got.TotalCost(), direct.Schema.TotalCost())
		}
		if !reflect.DeepEqual(got.Matrix(), direct.Schema.Matrix()) {
			t.Fatalf("seed %d: placements diverge between delta path and materialized path", seed)
		}
		if err := got.ValidateInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestBatchAtomicity: a batch with one invalid delta changes nothing — not
// the version, not the counters, and not one demand cell of the live
// workload, although before it failed the batch changed, deleted and
// dropped cells in rows that workload shares.
func TestBatchAtomicity(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(2))
	ctrl, err := New(p.Cost, p.Work, p.Capacity, Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := ctrl.Metrics()
	work := ctrl.Current().Problem.Work.Clone()
	first := work.PerServer[1][0]
	_, err = ctrl.ApplyDeltas([]Delta{
		{Kind: KindDemand, Server: 0, Object: 0, Reads: 100},
		{Kind: KindDemand, Server: 1, Object: first.Object, Reads: -first.Reads, Writes: -first.Writes},
		{Kind: KindRemoveObject, Object: work.PerServer[2][0].Object},
		{Kind: KindServerLeave, Server: 3},
		{Kind: KindDemand, Server: p.M + 5, Object: 0, Reads: 1}, // invalid
	})
	if err == nil {
		t.Fatal("batch with an out-of-range delta was accepted")
	}
	after := ctrl.Metrics()
	if after.Version != before.Version || after.DeltasApplied != before.DeltasApplied {
		t.Fatalf("rejected batch mutated state: %+v -> %+v", before, after)
	}
	if !reflect.DeepEqual(ctrl.Current().Problem.Work, work) {
		t.Fatal("rejected batch wrote into the live workload")
	}
	if _, err := ctrl.Route(0, 0); err != nil {
		t.Fatal(err)
	}
}

// TestCopyOnWriteIsolation: delta batches share demand rows with the epochs
// already published, so a successful batch must copy every row it changes.
// The batch below drives a shared cell to zero, rewrites one, inserts one,
// retires an object, drops a server's row and grows M, while a reader
// goroutine walks the previous epoch's rows (the race detector flags any
// write into them). The previous epoch's workload must come out unchanged,
// and so must the next one's after a second batch touches the rows the
// first batch copied — row ownership lasts one batch.
func TestCopyOnWriteIsolation(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(4))
	// One server short of the oracle's coverage, so a server-join can grow M.
	m := p.M - 1
	w := p.Work.Clone()
	w.M, w.PerServer = m, w.PerServer[:m]
	for k := range w.Primary {
		w.Primary[k] %= int32(m)
	}
	w.Finalize()
	ctrl, err := New(p.Cost, w, p.Capacity[:m], Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	prev := ctrl.Current()
	want := prev.Problem.Work.Clone()
	zeroed := want.PerServer[0][0]
	bumped := want.PerServer[0][1]
	var fresh int32 // an object server 1 does not demand yet
	for fresh < int32(p.N) {
		if r, wr := want.ReadsWrites(1, fresh); r == 0 && wr == 0 {
			break
		}
		fresh++
	}
	retired := want.PerServer[2][0].Object
	batch := []Delta{
		{Kind: KindDemand, Server: 0, Object: zeroed.Object, Reads: -zeroed.Reads - 1, Writes: -zeroed.Writes},
		{Kind: KindDemand, Server: 0, Object: bumped.Object, Reads: 3},
		{Kind: KindDemand, Server: 1, Object: fresh, Reads: 7},
		{Kind: KindRemoveObject, Object: retired},
		{Kind: KindServerLeave, Server: 3},
		{Kind: KindServerJoin, Server: m, Capacity: 50},
	}

	// walk reads every cell of work in a loop until the returned stop is
	// called; stop waits for the reader to exit.
	walk := func(work *workload.Workload) (stop func() int64) {
		quit, sum := make(chan struct{}), make(chan int64)
		go func() {
			var s int64
			for {
				for _, row := range work.PerServer {
					for _, d := range row {
						s += int64(d.Object) + d.Reads + d.Writes
					}
				}
				select {
				case <-quit:
					sum <- s
					return
				default:
				}
			}
		}()
		return func() int64 { close(quit); return <-sum }
	}
	stop := walk(prev.Problem.Work)
	_, err = ctrl.ApplyDeltas(batch)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prev.Problem.Work, want) {
		t.Fatal("a successful batch wrote into the previous epoch's workload")
	}

	next := ctrl.Current().Problem.Work
	if next.M != m+1 || next.PerServer[m] != nil {
		t.Fatalf("server-join grew M to %d (new row %v), want %d and no demand", next.M, next.PerServer[m], m+1)
	}
	check := func(i int, k int32, reads, writes int64) {
		t.Helper()
		if r, wr := next.ReadsWrites(i, k); r != reads || wr != writes {
			t.Fatalf("cell (%d,%d) = (%d,%d), want (%d,%d)", i, k, r, wr, reads, writes)
		}
	}
	check(0, zeroed.Object, 0, 0)
	check(0, bumped.Object, bumped.Reads+3, bumped.Writes)
	check(1, fresh, 7, 0)
	for i := range next.PerServer {
		check(i, retired, 0, 0)
	}
	if next.PerServer[3] != nil {
		t.Fatalf("departed server kept demand %v", next.PerServer[3])
	}
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
	// A row the batch never touched is shared, not copied.
	demands := func(i int, k int32) bool {
		for _, d := range want.PerServer[i] {
			if d.Object == k {
				return true
			}
		}
		return false
	}
	untouched := 4
	for len(want.PerServer[untouched]) == 0 || demands(untouched, retired) {
		untouched++
	}
	if &next.PerServer[untouched][0] != &prev.Problem.Work.PerServer[untouched][0] {
		t.Fatal("an untouched row was copied")
	}

	// The rows the first batch copied are published now: a second batch
	// must copy them again.
	mid := ctrl.Current()
	wantMid := mid.Problem.Work.Clone()
	stop = walk(mid.Problem.Work)
	_, err = ctrl.ApplyDeltas([]Delta{
		{Kind: KindDemand, Server: 1, Object: fresh, Reads: -7},
		{Kind: KindDemand, Server: 0, Object: bumped.Object, Writes: 2},
		{Kind: KindDemand, Server: m, Object: fresh, Reads: 1},
	})
	stop()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mid.Problem.Work, wantMid) {
		t.Fatal("the second batch wrote into rows the first batch published")
	}
}

// TestObjectLifecycle: add an object, drive demand at it, solve, retire it.
func TestObjectLifecycle(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(5))
	ctrl, err := New(p.Cost, p.Work, p.Capacity, Config{})
	if err != nil {
		t.Fatal(err)
	}
	newObj := int32(p.N)
	batch := []Delta{{Kind: KindAddObject, Size: 1, Primary: 0}}
	for i := 1; i < p.M; i++ {
		batch = append(batch, Delta{Kind: KindDemand, Server: i, Object: newObj, Reads: 5000})
	}
	if _, err := ctrl.ApplyDeltas(batch); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Metrics().Objects; got != p.N+1 {
		t.Fatalf("objects = %d after add, want %d", got, p.N+1)
	}
	if err := ctrl.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Replicas includes the primary copy; heavy demand must add more.
	v := ctrl.Current()
	if len(v.Schema.Replicas(newObj)) <= 1 {
		t.Fatal("heavy demand at the new object produced no replicas")
	}

	// Retire it: demand is gone immediately, replicas dissolve at the next
	// re-pricing.
	if _, err := ctrl.ApplyDeltas([]Delta{{Kind: KindRemoveObject, Object: newObj}}); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	v = ctrl.Current()
	if got := v.Schema.Replicas(newObj); len(got) != 1 || got[0] != 0 {
		t.Fatalf("retired object holds %v after re-solve, want its primary [0] only", got)
	}
	// Its primary copy must survive: routing to it still answers.
	nn, err := ctrl.Route(3, newObj)
	if err != nil {
		t.Fatal(err)
	}
	if nn != 0 {
		t.Fatalf("retired object routes to %d, want its primary 0", nn)
	}
	// New demand at a retired object is invalid.
	if _, err := ctrl.ApplyDeltas([]Delta{{Kind: KindDemand, Server: 1, Object: newObj, Reads: 1}}); err == nil {
		t.Fatal("demand delta at a retired object was accepted")
	}
}

// TestServerLeaveJoin: departure drops the server's surplus replicas and
// demand; rejoining restores capacity. Growth past the cost oracle fails.
func TestServerLeaveJoin(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(6))
	ctrl, err := New(p.Cost, p.Work, p.Capacity, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Find a server holding surplus replicas.
	v := ctrl.Current()
	victim := -1
	for i := 0; i < p.M && victim < 0; i++ {
		for k := int32(0); int(k) < p.N; k++ {
			if int32(i) != p.Work.Primary[k] && v.Schema.HasReplica(k, i) {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		t.Fatal("no server holds a surplus replica after solving")
	}

	res, err := ctrl.ApplyDeltas([]Delta{{Kind: KindServerLeave, Server: victim}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("departure of a replica-holding server dropped nothing")
	}
	m := ctrl.Metrics()
	if m.ActiveServers != p.M-1 || m.Evictions == 0 {
		t.Fatalf("metrics after leave: active=%d evictions=%d", m.ActiveServers, m.Evictions)
	}
	// The departed server keeps its primaries and still routes.
	if _, err := ctrl.Route(victim, 0); err != nil {
		t.Fatal(err)
	}
	// Demand at a departed server is rejected; double-leave too.
	if _, err := ctrl.ApplyDeltas([]Delta{{Kind: KindDemand, Server: victim, Object: 0, Reads: 1}}); err == nil {
		t.Fatal("demand delta at a departed server was accepted")
	}
	if _, err := ctrl.ApplyDeltas([]Delta{{Kind: KindServerLeave, Server: victim}}); err == nil {
		t.Fatal("double departure was accepted")
	}

	// Rejoin with fresh capacity.
	if _, err := ctrl.ApplyDeltas([]Delta{{Kind: KindServerJoin, Server: victim, Capacity: p.Capacity[victim]}}); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Metrics().ActiveServers; got != p.M {
		t.Fatalf("active servers after rejoin = %d, want %d", got, p.M)
	}
	// Growing beyond the cost oracle's coverage must fail (the test
	// topology covers exactly M servers).
	if _, err := ctrl.ApplyDeltas([]Delta{{Kind: KindServerJoin, Server: p.M, Capacity: 100}}); err == nil {
		t.Fatal("growth past the cost oracle was accepted")
	}
}

// TestDriftAutoSolve: a demand shift past the threshold triggers a
// background re-solve without any explicit SolveNow call.
func TestDriftAutoSolve(t *testing.T) {
	cfg := testutil.Small(8)
	p := testutil.MustBuild(cfg)
	ctrl, err := New(p.Cost, p.Work, p.Capacity, Config{
		DriftThreshold: 0.01,
		SolveDebounce:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctrl.Start(ctx)
	defer ctrl.Close()

	if err := ctrl.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	solved := ctrl.Metrics().SolvesRun

	// Shift demand until the drift trips the threshold.
	scheduled := false
	for ds := int64(1); ds <= 5 && !scheduled; ds++ {
		w2, err := workload.Synthetic(workload.SyntheticConfig{
			Servers: cfg.Servers, Objects: cfg.Objects, Requests: cfg.Requests,
			RWRatio: cfg.RWRatio, Seed: cfg.Seed, DemandSeed: cfg.Seed + 100*ds,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ctrl.ApplyDeltas(demandDiff(ctrl.Current().Problem.Work, w2))
		if err != nil {
			t.Fatal(err)
		}
		scheduled = res.SolveScheduled
	}
	if !scheduled {
		t.Fatal("no demand shift produced drift above 0.01 percentage points")
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := ctrl.Metrics(); m.SolvesRun > solved && m.Drift == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("background solve never ran: %+v", ctrl.Metrics())
}

// TestRestorePlacement round-trips a placement through the report form the
// daemon persists on shutdown.
func TestRestorePlacement(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(10))
	ctrl, err := New(p.Cost, p.Work, p.Capacity, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := ctrl.Placement()

	again, err := New(p.Cost, p.Work, p.Capacity, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := again.RestorePlacement(rep); err != nil {
		t.Fatal(err)
	}
	if got := again.Current().Schema.TotalCost(); got != rep.OTC {
		t.Fatalf("restored OTC %d != persisted %d", got, rep.OTC)
	}
	if m := again.Metrics(); m.Drift != 0 || m.SolvedSavings != rep.Savings {
		t.Fatalf("restore did not reset the drift baseline: %+v", m)
	}
}

// TestDeltasFromEvents covers the trace-to-delta aggregation, including the
// nil-ClientMap convention (client c -> server c mod M).
func TestDeltasFromEvents(t *testing.T) {
	events := []trace.Event{
		{Client: 0, Object: 3},
		{Client: 0, Object: 3, Write: true},
		{Client: 4, Object: 3}, // 4 mod 4 -> server 0
		{Client: 1, Object: 7},
	}
	ds, err := DeltasFromEvents(events, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []Delta{
		{Kind: KindDemand, Server: 0, Object: 3, Reads: 2, Writes: 1},
		{Kind: KindDemand, Server: 1, Object: 7, Reads: 1},
	}
	if !reflect.DeepEqual(ds, want) {
		t.Fatalf("DeltasFromEvents = %+v, want %+v", ds, want)
	}
	cm := workload.ClientMap{0: 2, 1: 2}
	ds, err = DeltasFromEvents(events[:2], cm, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Server != 2 {
		t.Fatalf("client map ignored: %+v", ds)
	}
	if _, err := DeltasFromEvents(events, cm, 4); err == nil {
		t.Fatal("event referencing a client outside the map was accepted")
	}
}

// TestSolveLoopSpacing pins the one spacing rule every background solve
// runs under: kicks that arrive while a run is in progress coalesce into
// one further run, and that run starts no sooner than the debounce after
// the previous run ended.
func TestSolveLoopSpacing(t *testing.T) {
	const debounce = 60 * time.Millisecond
	kicks := make(chan struct{}, 1)
	started := make(chan time.Time, 8)
	ended := make(chan time.Time, 8)
	release := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		SolveLoop(ctx, kicks, debounce, func(ctx context.Context) {
			started <- time.Now()
			select {
			case <-release:
			case <-ctx.Done():
			}
			ended <- time.Now()
		})
	}()
	defer func() {
		cancel()
		<-done
	}()

	Kick(kicks)
	<-started // the first run starts at once: no run has ended yet
	for i := 0; i < 5; i++ {
		Kick(kicks)
	}
	// A run longer than the debounce: measured from its start, the window
	// would already be over when it ends.
	time.Sleep(debounce)
	release <- struct{}{}
	end := <-ended
	next := <-started
	if gap := next.Sub(end); gap < debounce {
		t.Fatalf("the coalesced run started %v after the previous run ended, want at least %v", gap, debounce)
	}
	release <- struct{}{}
	<-ended
	select {
	case <-started:
		t.Fatal("five kicks during one run ran more than one further run")
	case <-time.After(3 * debounce):
	}
}
