package glauber

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/greedy"
	"repro/internal/solver"
	"repro/internal/testutil"
)

func TestSolveRuns(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(1))
	res, err := Solve(context.Background(), p, Config{Sweeps: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema == nil {
		t.Fatal("nil schema")
	}
	if res.Evaluations <= 0 {
		t.Fatal("no evaluations counted")
	}
	if res.Accepted <= 0 {
		t.Fatal("chain accepted no moves")
	}
	if len(res.History) != 20 {
		t.Fatalf("history length %d, want 20", len(res.History))
	}
	if res.Schema.Savings() <= 0 {
		t.Fatalf("savings %.2f, want > 0", res.Schema.Savings())
	}
	if err := res.Schema.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNilProblem(t *testing.T) {
	if _, err := Solve(context.Background(), nil, Config{}); err == nil {
		t.Fatal("nil problem accepted")
	}
}

// The best-so-far history must be monotone: the journal replay returns the
// best placement ever visited, never the chain's final wander.
func TestBestHistoryMonotone(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(2))
	res, err := Solve(context.Background(), p, Config{Sweeps: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1] {
			t.Fatalf("best cost regressed at sweep %d: %d -> %d",
				i, res.History[i-1], res.History[i])
		}
	}
	// The quench can only improve on the chain's best.
	if got := res.Schema.TotalCost(); got > res.History[len(res.History)-1] {
		t.Fatalf("final cost %d above the chain's best %d", got, res.History[len(res.History)-1])
	}
}

func TestDeterministicForSeed(t *testing.T) {
	cfg := Config{Sweeps: 12, Seed: 3}
	a, err := Solve(context.Background(), testutil.MustBuild(testutil.Small(3)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), testutil.MustBuild(testutil.Small(3)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	am, bm := a.Schema.Matrix(), b.Schema.Matrix()
	if len(am) != len(bm) {
		t.Fatalf("matrix lengths differ: %d vs %d", len(am), len(bm))
	}
	for k := range am {
		if len(am[k]) != len(bm[k]) {
			t.Fatalf("object %d: replica sets differ", k)
		}
		for i := range am[k] {
			if am[k][i] != bm[k][i] {
				t.Fatalf("object %d: replica sets differ at %d", k, i)
			}
		}
	}
	if a.Evaluations != b.Evaluations || a.Accepted != b.Accepted {
		t.Fatalf("work differs across identical runs: (%d,%d) vs (%d,%d)",
			a.Evaluations, a.Accepted, b.Evaluations, b.Accepted)
	}
}

func TestDifferentSeedsExplore(t *testing.T) {
	p := func() *testutil.InstanceConfig { c := testutil.Small(4); return &c }()
	a, err := Solve(context.Background(), testutil.MustBuild(*p), Config{Sweeps: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), testutil.MustBuild(*p), Config{Sweeps: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds walk different chains; the accepted-move counts all
	// but surely differ even when final costs coincide.
	if a.Accepted == b.Accepted && a.Evaluations == b.Evaluations && a.Schema.TotalCost() == b.Schema.TotalCost() {
		t.Fatal("two seeds produced an identical run; the seed is not wired into the chain")
	}
}

// The quench alone makes the result at least a single-flip local optimum,
// which for this landscape means it is competitive with greedy: within a
// few points of savings, not degenerate.
func TestCompetitiveWithGreedy(t *testing.T) {
	cfg := testutil.Small(6)
	gres, err := greedy.Solve(context.Background(), testutil.MustBuild(cfg), greedy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), testutil.MustBuild(cfg), Config{Sweeps: 40, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Savings() < gres.Schema.Savings()-5 {
		t.Fatalf("glauber %.2f%% more than 5 points behind greedy %.2f%%",
			res.Schema.Savings(), gres.Schema.Savings())
	}
}

func TestCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := testutil.MustBuild(testutil.Small(7))
	_, err := Solve(ctx, p, Config{Sweeps: 10, Seed: 7})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCancelledMidChain(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(8))
	// The first poll passes (pre-chain check), later ones cancel mid-sweep.
	ctx := testutil.CancelAfterPolls(3)
	_, err := Solve(ctx, p, Config{Sweeps: 50, Seed: 8})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestWarmStart(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(9))
	cold, err := Solve(context.Background(), p, Config{Sweeps: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(context.Background(), p, Config{Sweeps: 5, Seed: 10, Warm: cold.Schema})
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Schema.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
	// Starting from a good placement, the best-so-far can never fall below
	// what the carried placement already achieved.
	if warm.Schema.TotalCost() > cold.Schema.TotalCost() {
		t.Fatalf("warm start ended at %d, worse than its seed placement %d",
			warm.Schema.TotalCost(), cold.Schema.TotalCost())
	}
}

// TestWarmRefusesForeignSchema: the chain starts only from a placement of
// the problem it solves; a schema of another Problem built from the same
// configuration is refused before the chain runs.
func TestWarmRefusesForeignSchema(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(9))
	cold, err := Solve(context.Background(), p, Config{Sweeps: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	twin := testutil.MustBuild(testutil.Small(9))
	if _, err := Solve(context.Background(), twin, Config{Sweeps: 3, Seed: 9, Warm: cold.Schema}); err == nil {
		t.Fatal("warm schema of another problem accepted")
	}
}

func TestOnSweepObserved(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(10))
	var sweeps []int
	_, err := Solve(context.Background(), p, Config{
		Sweeps: 8, Seed: 10,
		OnSweep: func(sweep int, bestCost int64) { sweeps = append(sweeps, sweep) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 8 {
		t.Fatalf("observed %d sweeps, want 8", len(sweeps))
	}
	for i, s := range sweeps {
		if s != i+1 {
			t.Fatalf("sweep %d reported as %d, want 1-based sequence", i, s)
		}
	}
}

// Property: the chain's result always satisfies the DRP constraints.
func TestResultAlwaysFeasibleProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := testutil.InstanceConfig{
			Servers: 8, Objects: 20, Requests: 1500, RWRatio: 0.8,
			CapacityPercent: 30, EdgeP: 0.4, Seed: seed,
		}
		p, err := testutil.Build(cfg)
		if err != nil {
			return false
		}
		res, err := Solve(context.Background(), p, Config{Sweeps: 6, Seed: seed})
		if err != nil {
			return false
		}
		return res.Schema.ValidateInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Registry adapter: single engine, sweeps/seed pass-through, GRA-style
// per-sweep events.
func TestAdapter(t *testing.T) {
	s, ok := solver.Lookup("glauber")
	if !ok {
		t.Fatal("glauber not registered")
	}
	if _, err := s.Solve(context.Background(), testutil.MustBuild(testutil.Small(11)),
		solver.Options{Engine: "sync"}); err == nil {
		t.Fatal("engine selection accepted by a single-engine method")
	}
	out, err := s.Solve(context.Background(), testutil.MustBuild(testutil.Small(11)),
		solver.Options{Seed: 11, GlauberSweeps: 7, RecordEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rounds != 7 {
		t.Fatalf("rounds %d, want the 7 configured sweeps", out.Rounds)
	}
	if len(out.Events) != 7 {
		t.Fatalf("%d events, want one per sweep", len(out.Events))
	}
	for i, ev := range out.Events {
		if ev.Round != i+1 || ev.Object != -1 || ev.Server != -1 {
			t.Fatalf("event %d = %+v, want per-sweep shape", i, ev)
		}
	}
	if out.Work <= 0 || out.Schema == nil {
		t.Fatalf("outcome missing work or schema: %+v", out)
	}
}

func TestDefaultSweepsScaling(t *testing.T) {
	// Small instances keep the historical 60-sweep budget.
	if got := DefaultSweeps(16, 60); got != 60 {
		t.Fatalf("DefaultSweeps(16,60) = %d, want 60", got)
	}
	if got := DefaultSweeps(32, 32); got != 60 {
		t.Fatalf("DefaultSweeps(32,32) = %d, want 60 at the pivot", got)
	}
	// One doubling past the pivot adds one 60-sweep block.
	if got := DefaultSweeps(64, 32); got != 120 {
		t.Fatalf("DefaultSweeps(64,32) = %d, want 120", got)
	}
	// Budget is monotone in the site count.
	prev := 0
	for _, m := range []int{16, 48, 100, 500, 1000, 10000} {
		got := DefaultSweeps(m, 3*m)
		if got < prev {
			t.Fatalf("DefaultSweeps(%d,%d) = %d < previous %d", m, 3*m, got, prev)
		}
		prev = got
	}
	// Daemon scale gets a real budget, not sixty.
	if got := DefaultSweeps(1000, 3000); got < 400 {
		t.Fatalf("DefaultSweeps(1000,3000) = %d, want a few hundred", got)
	}
}

func TestAdaptiveDefaultUsedWhenSweepsZero(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(2))
	res, err := Solve(context.Background(), p, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultSweeps(p.M, p.N)
	if len(res.History) != want {
		t.Fatalf("defaulted run did %d sweeps, want DefaultSweeps = %d", len(res.History), want)
	}
	// An explicit budget is used verbatim, bit-reproducibly.
	a, err := Solve(context.Background(), p, Config{Sweeps: 17, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), p, Config{Sweeps: 17, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.History) != 17 || len(b.History) != 17 {
		t.Fatalf("explicit budget not honored: %d, %d sweeps", len(a.History), len(b.History))
	}
	am, bm := a.Schema.Matrix(), b.Schema.Matrix()
	for k := range am {
		if len(am[k]) != len(bm[k]) {
			t.Fatalf("fixed (seed, sweeps) run diverged at object %d", k)
		}
		for i := range am[k] {
			if am[k][i] != bm[k][i] {
				t.Fatalf("fixed (seed, sweeps) run diverged at object %d", k)
			}
		}
	}
}
