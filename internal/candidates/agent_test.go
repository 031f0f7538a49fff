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
	// Observing a replica on the nearest other server refreshes the
	// candidate's nearest-copy cost, so its valuation cannot rise.
	near := -1
	for m := 0; m < p.M; m++ {
		if m != a.ID && (near < 0 || p.Cost.At(a.ID, m) < p.Cost.At(a.ID, near)) {
			near = m
		}
	}
	before := candFor(t, a, obj).NNCost
	a.Apply(p, obj, near)
	if got, want := candFor(t, a, obj).NNCost, min(before, p.Cost.At(a.ID, near)); got != want {
		t.Fatalf("observe left NN cost %d, want %d", got, want)
	}
	if obj2, val2, ok2 := a.Best(); ok2 && obj2 == obj && val2 > val {
		t.Fatalf("observe raised the valuation: %d -> %d", val, val2)
	}
	// Winning consumes capacity and retires the candidate.
	residual := a.Residual
	if obj3, _, ok3 := a.Best(); ok3 {
		a.Apply(p, obj3, a.ID)
		if a.Residual >= residual {
			t.Fatal("winning did not consume capacity")
		}
		for _, c := range a.Cands {
			if c.Object == obj3 {
				t.Fatal("won candidate still in list")
			}
		}
	}
	// A broadcast for an object the agent does not list changes nothing.
	n, residual := len(a.Cands), a.Residual
	a.Apply(p, int32(p.N), a.ID)
	if len(a.Cands) != n || a.Residual != residual {
		t.Fatal("broadcast for an unlisted object changed the agent")
	}
}

// candFor returns a's candidate for object k.
func candFor(t *testing.T, a *Agent, k int32) Cand {
	t.Helper()
	for _, c := range a.Cands {
		if c.Object == k {
			return c
		}
	}
	t.Fatalf("agent %d lists no object %d", a.ID, k)
	return Cand{}
}
