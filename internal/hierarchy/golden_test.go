package hierarchy

import (
	"context"
	"testing"

	"repro/internal/testutil"
)

// TestSolveGolden pins every Result count and the final OTC of the
// regional mechanism on four seeds and four operating modes at four
// regions. The values are recorded from a reference run; the property
// tests elsewhere check only inequalities, so this is what catches an
// agent or broadcast change that moves a placement.
func TestSolveGolden(t *testing.T) {
	modes := map[string]Config{
		"hierarchical":    {Regions: 4},
		"autonomous":      {Regions: 4, Mode: Autonomous},
		"top-fails-3":     {Regions: 4, TopFailsAfter: 3},
		"failed-region-1": {Regions: 4, FailedRegions: []int{1}},
	}
	golden := []struct {
		seed                                    int64
		mode                                    string
		epochs, placed, top, regional, degraded int
		otc                                     int64
	}{
		{1, "hierarchical", 98, 98, 98, 0, -1, 321239},
		{1, "autonomous", 64, 103, 0, 103, -1, 321401},
		{1, "top-fails-3", 66, 103, 3, 100, 3, 321401},
		{1, "failed-region-1", 88, 88, 88, 0, -1, 343792},
		{2, "hierarchical", 100, 100, 100, 0, -1, 192624},
		{2, "autonomous", 42, 101, 0, 101, -1, 192820},
		{2, "top-fails-3", 43, 101, 3, 98, 3, 192820},
		{2, "failed-region-1", 61, 61, 61, 0, -1, 265382},
		{3, "hierarchical", 97, 97, 97, 0, -1, 209471},
		{3, "autonomous", 29, 98, 0, 98, -1, 209506},
		{3, "top-fails-3", 32, 98, 3, 95, 3, 209506},
		{3, "failed-region-1", 67, 67, 67, 0, -1, 292111},
		{4, "hierarchical", 95, 95, 95, 0, -1, 344926},
		{4, "autonomous", 31, 95, 0, 95, -1, 344926},
		{4, "top-fails-3", 34, 95, 3, 92, 3, 344926},
		{4, "failed-region-1", 67, 67, 67, 0, -1, 370286},
	}
	for _, g := range golden {
		res, err := Solve(context.Background(), testutil.MustBuild(testutil.Small(g.seed)), modes[g.mode])
		if err != nil {
			t.Fatal(err)
		}
		got := [5]int{res.Epochs, res.Placed, res.TopDecisions, res.RegionalDecisions, res.DegradedAtEpoch}
		want := [5]int{g.epochs, g.placed, g.top, g.regional, g.degraded}
		if got != want || res.Schema.TotalCost() != g.otc {
			t.Errorf("seed %d %s: epochs/placed/top/regional/degraded %v OTC %d, want %v OTC %d",
				g.seed, g.mode, got, res.Schema.TotalCost(), want, g.otc)
		}
	}
}
