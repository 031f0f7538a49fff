package candidates

import (
	"testing"

	"repro/internal/pool"
	"repro/internal/replication"
	"repro/internal/testutil"
)

// localCost is a synthetic metric that charges for local access: c(i, i)
// is larger than any path cost, so a copy a server already holds still
// looks beneficial to the CoR filter and only the held-copy skip keeps it
// out of the candidate set.
type localCost struct{ replication.CostFn }

func (c localCost) At(i, j int) int32 {
	if i == j {
		return 1000
	}
	return c.CostFn.At(i, j)
}

// edgeProblem returns p under the localCost metric with one demand cell
// re-weighted to a CoR valuation of exactly zero: its reads equal the other
// servers' writes of the object, and the object fits. Neither a held copy
// nor that cell may qualify.
func edgeProblem(t *testing.T, p *replication.Problem) *replication.Problem {
	t.Helper()
	w := p.Work.Clone()
	tied := false
	for i := 0; i < w.M && !tied; i++ {
		for slot, d := range w.PerServer[i] {
			others := w.TotalWrites[d.Object] - d.Writes
			if d.Reads > 0 && others > 0 && int(w.Primary[d.Object]) != i &&
				w.ObjectSize[d.Object] <= p.Capacity[i]-p.PrimaryLoad(i) {
				w.PerServer[i][slot].Reads = others
				tied = true
				break
			}
		}
	}
	if !tied {
		t.Fatal("no demand cell to tie at zero benefit")
	}
	w.Finalize()
	q, err := replication.NewProblem(localCost{p.Cost}, w, p.Capacity)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// placeSome places a few replicas on a fresh schema of p.
func placeSome(t *testing.T, p *replication.Problem) *replication.Schema {
	t.Helper()
	s := p.NewSchema()
	placed := 0
	for k := int32(0); k < int32(p.N) && placed < 5; k++ {
		for m := 0; m < p.M && placed < 5; m++ {
			if s.CanPlace(k, m) == nil {
				if _, err := s.PlaceReplica(k, m); err != nil {
					t.Fatal(err)
				}
				placed++
			}
		}
	}
	return s
}

// TestBuildArenaFromMatchesSchemaState checks the shared pricing against
// replication.Schema, the independent reference, on a primary-only and a
// warm schema of a generated instance and of its edgeProblem. Every
// server's segment must be exactly the demand cells that read the object,
// hold no copy, fit the residual and have a positive Schema.LocalBenefit,
// in object order, with the schema's nearest-replica cost and benefit. On
// primary-only schemas the cold arena must match too, and segment i must
// equal NewAgent(p, i)'s list field by field.
func TestBuildArenaFromMatchesSchemaState(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(3))
	edge := edgeProblem(t, p)
	pl := pool.New(2)
	defer pl.Close()
	for _, tc := range []struct {
		name string
		s    *replication.Schema
	}{
		{"primary-only", p.NewSchema()},
		{"warm", placeSome(t, p)},
		{"edge/primary-only", edge.NewSchema()},
		{"edge/warm", placeSome(t, edge)},
	} {
		checkArena(t, tc.name, tc.s, BuildArenaFrom(tc.s, pl))
		if tc.s.Placed() > 0 {
			continue
		}
		q := tc.s.Problem()
		cold := BuildArena(q, pl)
		checkArena(t, tc.name+"/cold", tc.s, cold)
		for i := 0; i < q.M; i++ {
			a := NewAgent(q, i)
			if a.ID != i || a.Residual != cold.Residual[i] || len(a.Cands) != cold.Len(i) {
				t.Fatalf("%s: server %d agent (id %d, residual %d, %d cands) != arena (residual %d, %d cands)",
					tc.name, i, a.ID, a.Residual, len(a.Cands), cold.Residual[i], cold.Len(i))
			}
			for j, c := range a.Cands {
				slot := cold.Start[i] + int32(j)
				want := Cand{
					Object: cold.Objs[slot], Size: cold.Sizes[slot], Reads: cold.Reads[slot],
					NNCost: cold.NNCosts[slot], UpdCost: cold.UpdCosts[slot],
				}
				if c != want {
					t.Fatalf("%s: server %d candidate %d: agent %+v != arena %+v", tc.name, i, j, c, want)
				}
			}
		}
	}
}

// checkArena asserts that a was priced completely and exactly against s.
func checkArena(t *testing.T, name string, s *replication.Schema, a *Arena) {
	t.Helper()
	p := s.Problem()
	if a.Cands() == 0 {
		t.Fatalf("%s: arena offers no candidates", name)
	}
	for i := 0; i < p.M; i++ {
		if a.Residual[i] != s.Residual(i) {
			t.Fatalf("%s: server %d residual %d != schema %d", name, i, a.Residual[i], s.Residual(i))
		}
		c := a.Start[i]
		for slot, d := range p.Work.PerServer[i] {
			k := d.Object
			cell := p.CellBase()[i] + int32(slot)
			want := d.Reads > 0 && !s.HasReplica(k, i) &&
				p.Work.ObjectSize[k] <= s.Residual(i) && s.LocalBenefit(i, k) > 0
			if !want {
				if a.Slot2Cand[cell] != -1 {
					t.Fatalf("%s: server %d offers object %d, which fails the filter", name, i, k)
				}
				continue
			}
			if c == a.Start[i+1] || a.Objs[c] != k || a.Slot2Cand[cell] != c {
				t.Fatalf("%s: server %d object %d missing from its segment", name, i, k)
			}
			if a.Sizes[c] != p.Work.ObjectSize[k] || a.Reads[c] != d.Reads {
				t.Fatalf("%s: server %d object %d size/reads %d/%d != %d/%d",
					name, i, k, a.Sizes[c], a.Reads[c], p.Work.ObjectSize[k], d.Reads)
			}
			if wantNN := p.Cost.At(i, int(s.NN(i, k))); a.NNCosts[c] != wantNN {
				t.Fatalf("%s: server %d object %d NN cost %d != schema %d", name, i, k, a.NNCosts[c], wantNN)
			}
			if a.Benefit(c) != s.LocalBenefit(i, k) {
				t.Fatalf("%s: server %d object %d benefit %d != schema %d", name, i, k, a.Benefit(c), s.LocalBenefit(i, k))
			}
			c++
		}
		if c != a.Start[i+1] {
			t.Fatalf("%s: server %d segment holds %d extra candidates", name, i, a.Start[i+1]-c)
		}
	}
}
