package candidates

import (
	"testing"

	"repro/internal/testutil"
)

func TestBuildAgentsBasics(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(1))
	agents := BuildAgents(p)
	if len(agents) == 0 {
		t.Fatal("no agents built")
	}
	for _, a := range agents {
		if !a.Active() {
			t.Fatalf("agent %d built inactive", a.ID)
		}
		if a.Residual != p.Capacity[a.ID]-p.PrimaryLoad(a.ID) {
			t.Fatalf("agent %d residual wrong", a.ID)
		}
		for j := 1; j < len(a.Cands); j++ {
			if a.Cands[j-1].Object >= a.Cands[j].Object {
				t.Fatalf("agent %d candidates unsorted", a.ID)
			}
		}
		for _, c := range a.Cands {
			if c.Benefit() <= 0 {
				t.Fatalf("agent %d carries non-beneficial candidate %d", a.ID, c.Object)
			}
		}
	}
}

func TestAgentBestObserveWon(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(2))
	agents := BuildAgents(p)
	a := agents[0]
	obj, val, ok := a.Best()
	if !ok || val <= 0 {
		t.Fatalf("Best() = %d,%d,%v", obj, val, ok)
	}
	// Observing a replica at distance 0 kills the candidate's read side.
	a.Observe(obj, 0)
	obj2, val2, ok2 := a.Best()
	if ok2 && obj2 == obj && val2 >= val {
		t.Fatalf("observe did not reduce the valuation: %d -> %d", val, val2)
	}
	// Winning consumes capacity and retires the candidate.
	before := a.Residual
	if obj3, _, ok3 := a.Best(); ok3 {
		a.Won(obj3)
		if a.Residual >= before {
			t.Fatal("Won did not consume capacity")
		}
		for _, c := range a.Cands {
			if c.Object == obj3 {
				t.Fatal("won candidate still in list")
			}
		}
	}
}
