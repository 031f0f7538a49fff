package candidates

import (
	"testing"

	"repro/internal/pool"
	"repro/internal/testutil"
)

// TestBuildArenaFromMatchesSchemaState: a warm arena prices every candidate
// against the live schema it was built from — residual capacities, held
// objects, nearest-replica costs and the schema's own local benefit.
func TestBuildArenaFromMatchesSchemaState(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(3))
	s := p.NewSchema()
	// Place a few replicas, then build the arena from the live schema.
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
	pl := pool.New(2)
	defer pl.Close()
	a := BuildArenaFrom(s, pl)
	if a.Cands() == 0 {
		t.Fatal("warm arena offers no candidates")
	}
	for i := 0; i < p.M; i++ {
		if a.Residual[i] != s.Residual(i) {
			t.Fatalf("server %d residual %d != schema %d", i, a.Residual[i], s.Residual(i))
		}
		for c := a.Start[i]; c < a.Start[i+1]; c++ {
			k := a.Objs[c]
			if s.HasReplica(k, i) {
				t.Fatalf("server %d offered object %d it already holds", i, k)
			}
			wantNN := p.Cost.At(i, int(s.NN(i, k)))
			if a.NNCosts[c] != wantNN {
				t.Fatalf("server %d object %d NN cost %d != schema %d", i, k, a.NNCosts[c], wantNN)
			}
			if a.Benefit(c) != s.LocalBenefit(i, k) {
				t.Fatalf("server %d object %d benefit %d != schema %d", i, k, a.Benefit(c), s.LocalBenefit(i, k))
			}
		}
	}
}
