package agtram

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/replication"
	"repro/internal/solver"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// TestWarmColdEquivalence: a warm re-solve from the primary-only placement
// is bit-identical to the cold incremental solve.
func TestWarmColdEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := testutil.MustBuild(testutil.Small(seed))
		cold, err := SolveIncremental(context.Background(), p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := SolveIncrementalFrom(context.Background(), p.NewSchema(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold.Allocations, warm.Allocations) {
			t.Fatalf("seed %d: allocations differ between cold and primary-only warm solve", seed)
		}
		if !reflect.DeepEqual(cold.Payments, warm.Payments) {
			t.Fatalf("seed %d: payments differ", seed)
		}
		if cold.Schema.TotalCost() != warm.Schema.TotalCost() {
			t.Fatalf("seed %d: OTC %d != %d", seed, cold.Schema.TotalCost(), warm.Schema.TotalCost())
		}
	}
}

// TestWarmFixedPoint: re-solving warm from a converged placement places
// nothing — the auction already ended with no beneficial candidate left.
func TestWarmFixedPoint(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(3))
	first, err := SolveIncremental(context.Background(), p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := SolveIncrementalFrom(context.Background(), first.Schema, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Allocations) != 0 {
		t.Fatalf("warm re-solve from a converged placement placed %d replicas", len(again.Allocations))
	}
	if again.Schema.TotalCost() != first.Schema.TotalCost() {
		t.Fatalf("fixed-point OTC moved: %d != %d", again.Schema.TotalCost(), first.Schema.TotalCost())
	}
	// The base schema must not have been mutated.
	if err := first.Schema.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmResolveAfterDrift: carry a solved placement onto a drifted problem
// and warm re-solve; savings must not fall below the carried placement's and
// the result must satisfy every schema invariant.
func TestWarmResolveAfterDrift(t *testing.T) {
	cfg := testutil.Small(9)
	p := testutil.MustBuild(cfg)
	first, err := SolveIncremental(context.Background(), p, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Drifted demand over the same catalogue and capacities.
	w2, err := workload.Synthetic(workload.SyntheticConfig{
		Servers: cfg.Servers, Objects: cfg.Objects, Requests: cfg.Requests,
		RWRatio: cfg.RWRatio, Seed: cfg.Seed, DemandSeed: cfg.Seed + 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := replication.NewProblem(p.Cost, w2, p.Capacity)
	if err != nil {
		t.Fatal(err)
	}
	carried, _ := p2.CarryOver(first.Schema.Matrix())
	res, err := SolveIncrementalFrom(context.Background(), carried, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Savings() < carried.Savings() {
		t.Fatalf("warm re-solve worsened savings: %.3f%% < %.3f%%", res.Schema.Savings(), carried.Savings())
	}
	if err := res.Schema.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmRegistry: the warm path is reachable through the solver registry
// and rejected on engines without it.
func TestWarmRegistry(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(4))
	s, ok := solver.Lookup("agt-ram")
	if !ok {
		t.Fatal("agt-ram not registered")
	}
	first, err := s.Solve(context.Background(), p, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Solve(context.Background(), p, solver.Options{Warm: first.Schema})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Replicas != 0 {
		t.Fatalf("registry warm re-solve from converged placement placed %d replicas", warm.Replicas)
	}
	if _, err := s.Solve(context.Background(), p, solver.Options{Warm: first.Schema, Engine: EngineSync}); err == nil {
		t.Fatal("warm solve on the sync engine must be rejected")
	}
}

// TestWarmRefusesForeignSchema: a warm schema must be a placement of the
// problem being solved. One built on another Problem is refused, even when
// that Problem was built from the same configuration, and the refusal
// leaves the schema untouched.
func TestWarmRefusesForeignSchema(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(4))
	s, _ := solver.Lookup("agt-ram")
	first, err := s.Solve(context.Background(), p, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	twin := testutil.MustBuild(testutil.Small(4))
	if _, err := s.Solve(context.Background(), twin, solver.Options{Warm: first.Schema}); err == nil {
		t.Fatal("warm schema of another problem accepted")
	}
	if err := first.Schema.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
}
