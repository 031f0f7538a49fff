package greedy

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func TestSolveImproves(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(1))
	res, err := Solve(context.Background(), p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Savings() <= 0 {
		t.Fatalf("savings = %v", res.Schema.Savings())
	}
	if res.Placed != res.Schema.Placed() {
		t.Fatalf("placed mismatch: %d vs %d", res.Placed, res.Schema.Placed())
	}
	if res.Evaluations <= 0 {
		t.Fatal("no evaluations counted")
	}
	if err := res.Schema.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSolveNil(t *testing.T) {
	if _, err := Solve(context.Background(), nil, DefaultConfig()); err == nil {
		t.Fatal("nil problem accepted")
	}
}

func TestDensityVsRawBenefit(t *testing.T) {
	pd := testutil.MustBuild(testutil.Small(2))
	pr := testutil.MustBuild(testutil.Small(2))
	dens, err := Solve(context.Background(), pd, Config{ByDensity: true})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Solve(context.Background(), pr, Config{ByDensity: false})
	if err != nil {
		t.Fatal(err)
	}
	// Both are valid greedy runs that improve the placement.
	if dens.Schema.Savings() <= 0 || raw.Schema.Savings() <= 0 {
		t.Fatalf("savings: density=%v raw=%v", dens.Schema.Savings(), raw.Schema.Savings())
	}
}

// Greedy never places a replica whose local benefit was non-positive, so
// the OTC decreases monotonically; final cost is strictly below base cost
// whenever anything was placed.
func TestSolveMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := testutil.InstanceConfig{
			Servers: 10, Objects: 40, Requests: 4000, RWRatio: 0.8,
			CapacityPercent: 30, EdgeP: 0.4, Seed: seed,
		}
		p, err := testutil.Build(cfg)
		if err != nil {
			return false
		}
		res, err := Solve(context.Background(), p, DefaultConfig())
		if err != nil {
			return false
		}
		if res.Placed > 0 && res.Schema.TotalCost() >= res.Schema.BaseCost() {
			return false
		}
		return res.Schema.ValidateInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
