package hierarchy

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/agtram"
	"repro/internal/testutil"
)

func TestPartitionCoversAllServers(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(1))
	for _, k := range []int{1, 2, 4, 7, 16, 100} {
		regions := Partition(p, k)
		wantK := k
		if wantK > p.M {
			wantK = p.M
		}
		if len(regions) != wantK {
			t.Fatalf("k=%d: got %d regions", k, len(regions))
		}
		seen := make([]bool, p.M)
		for _, members := range regions {
			for _, i := range members {
				if seen[i] {
					t.Fatalf("server %d in two regions", i)
				}
				seen[i] = true
			}
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("server %d unassigned", i)
			}
		}
	}
	if got := Partition(p, 0); len(got) != 1 {
		t.Fatalf("k=0 should clamp to 1, got %d", len(got))
	}
}

// The headline property of the hierarchical mode: the max of regional
// maxima is the global max, so the final placement cost matches flat
// AGT-RAM exactly.
func TestHierarchicalMatchesFlatAGTRAM(t *testing.T) {
	for _, regions := range []int{1, 2, 4, 8} {
		cfg := testutil.Small(2)
		h, err := Solve(context.Background(), testutil.MustBuild(cfg), Config{Regions: regions})
		if err != nil {
			t.Fatal(err)
		}
		flat, err := agtram.Solve(context.Background(), testutil.MustBuild(cfg), agtram.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if h.Schema.TotalCost() != flat.Schema.TotalCost() {
			t.Fatalf("regions=%d: hierarchical %d != flat %d",
				regions, h.Schema.TotalCost(), flat.Schema.TotalCost())
		}
		if h.TopDecisions != h.Placed {
			t.Fatalf("top decisions %d != placements %d", h.TopDecisions, h.Placed)
		}
		if err := h.Schema.ValidateInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAutonomousMode(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(3))
	res, err := Solve(context.Background(), p, Config{Regions: 4, Mode: Autonomous})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Savings() <= 0 {
		t.Fatalf("autonomous savings %.2f", res.Schema.Savings())
	}
	if res.TopDecisions != 0 {
		t.Fatalf("autonomous mode took %d top decisions", res.TopDecisions)
	}
	if res.RegionalDecisions != res.Placed {
		t.Fatalf("regional decisions %d != placements %d", res.RegionalDecisions, res.Placed)
	}
	// Autonomous places up to R replicas per epoch, so it needs fewer epochs.
	h, err := Solve(context.Background(), testutil.MustBuild(testutil.Small(3)), Config{Regions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed > 4 && res.Epochs >= h.Epochs {
		t.Fatalf("autonomous epochs %d should be below hierarchical %d", res.Epochs, h.Epochs)
	}
	if err := res.Schema.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTopLevelFailureDegradesGracefully(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(4))
	res, err := Solve(context.Background(), p, Config{Regions: 4, TopFailsAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedAtEpoch != 3 {
		t.Fatalf("degraded at epoch %d, want 3", res.DegradedAtEpoch)
	}
	if res.TopDecisions != 3 {
		t.Fatalf("top decisions %d, want 3 (then failure)", res.TopDecisions)
	}
	if res.RegionalDecisions == 0 {
		t.Fatal("no autonomous decisions after the failure")
	}
	// The system keeps replicating: total savings remain positive.
	if res.Schema.Savings() <= 0 {
		t.Fatalf("savings %.2f after degradation", res.Schema.Savings())
	}
}

func TestFailedRegionsAreSilent(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(5))
	res, err := Solve(context.Background(), p, Config{Regions: 4, FailedRegions: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	// No server of region 1 may hold a non-primary replica.
	inRegion := make(map[int32]bool)
	for _, i := range res.Regions[1] {
		inRegion[i] = true
	}
	for k := 0; k < p.N; k++ {
		for _, srv := range res.Schema.Replicas(int32(k)) {
			if srv == p.Work.Primary[k] {
				continue
			}
			if inRegion[srv] {
				t.Fatalf("failed region's server %d hosts a replica of %d", srv, k)
			}
		}
	}
	// Everyone else still replicates.
	if res.Schema.Savings() <= 0 {
		t.Fatalf("savings %.2f with one failed region", res.Schema.Savings())
	}
	// Against a fully healthy run, quality can only be lower or equal.
	healthy, err := Solve(context.Background(), testutil.MustBuild(testutil.Small(5)), Config{Regions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Savings() > healthy.Schema.Savings()+1e-9 {
		t.Fatalf("failed-region run (%.2f) beat the healthy run (%.2f)",
			res.Schema.Savings(), healthy.Schema.Savings())
	}
}

func TestSolveErrors(t *testing.T) {
	if _, err := Solve(context.Background(), nil, Config{}); err == nil {
		t.Fatal("nil problem accepted")
	}
	p := testutil.MustBuild(testutil.Small(6))
	if _, err := Solve(context.Background(), p, Config{Regions: -2}); err == nil {
		t.Fatal("negative regions accepted")
	}
	if _, err := Solve(context.Background(), p, Config{Regions: 4, FailedRegions: []int{9}}); err == nil {
		t.Fatal("out-of-range failed region accepted")
	}
}

func TestModeString(t *testing.T) {
	if Hierarchical.String() != "hierarchical" || Autonomous.String() != "autonomous" {
		t.Fatal("mode names wrong")
	}
}

// Property: for any region count and mode, the result satisfies all schema
// invariants and autonomous savings never exceed the capacity-unconstrained
// optimum embodied by the hierarchical run by more than rounding noise.
func TestSolveValidProperty(t *testing.T) {
	f := func(seed int64, rawRegions uint8, autonomous bool) bool {
		cfg := testutil.InstanceConfig{
			Servers: 12, Objects: 40, Requests: 3000, RWRatio: 0.85,
			CapacityPercent: 25, EdgeP: 0.4, Seed: seed,
		}
		p, err := testutil.Build(cfg)
		if err != nil {
			return false
		}
		mode := Hierarchical
		if autonomous {
			mode = Autonomous
		}
		res, err := Solve(context.Background(), p, Config{Regions: int(rawRegions%6) + 1, Mode: mode})
		if err != nil {
			return false
		}
		return res.Schema.ValidateInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
