package replication_test

import (
	"reflect"
	"testing"

	"repro/internal/replication"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// TestWorkloadCloneIndependence covers the Clone helper directly.
func TestWorkloadCloneIndependence(t *testing.T) {
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Servers: 8, Objects: 30, Requests: 4000, RWRatio: 0.8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := w.Clone()
	if !reflect.DeepEqual(w, c) {
		t.Fatal("clone differs from original before mutation")
	}
	if len(c.PerServer[0]) > 0 {
		c.PerServer[0][0].Reads += 1234
	}
	c.ObjectSize[0] += 7
	c.Primary[0] = (c.Primary[0] + 1) % int32(c.M)
	c.TotalReads[0] += 9
	if reflect.DeepEqual(w, c) {
		t.Fatal("mutation of the clone did not register")
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("original invalid after clone mutation: %v", err)
	}
}

// TestCarryOver verifies feasible replicas survive and infeasible ones are
// dropped with an accurate count.
func TestCarryOver(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(11))
	s := p.NewSchema()
	// Place a handful of replicas greedily.
	placedMatrix := [][]int32(nil)
	for k := int32(0); int(k) < p.N; k++ {
		for m := 0; m < p.M && s.Placed() < 12; m++ {
			if s.CanPlace(k, m) == nil && s.DeltaIfPlaced(k, m) < 0 {
				if _, err := s.PlaceReplica(k, m); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	placedMatrix = s.Matrix()

	// Carrying onto an identical problem loses nothing.
	got, dropped := p.CarryOver(placedMatrix)
	if dropped != 0 {
		t.Fatalf("carry-over onto identical problem dropped %d replicas", dropped)
	}
	if got.TotalCost() != s.TotalCost() || got.Placed() != s.Placed() {
		t.Fatalf("carry-over OTC %d/placed %d != original %d/%d",
			got.TotalCost(), got.Placed(), s.TotalCost(), s.Placed())
	}
	if err := got.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}

	// Shrink every capacity to its primary load: every surplus replica must
	// be dropped, none may slip through.
	caps := make([]int64, p.M)
	for i := range caps {
		caps[i] = p.PrimaryLoad(i)
	}
	tight, err := replication.NewProblem(p.Cost, p.Work, caps)
	if err != nil {
		t.Fatal(err)
	}
	bare, droppedAll := tight.CarryOver(placedMatrix)
	if droppedAll != s.Placed() {
		t.Fatalf("tight carry-over dropped %d, want all %d", droppedAll, s.Placed())
	}
	if bare.Placed() != 0 {
		t.Fatalf("tight carry-over still holds %d replicas", bare.Placed())
	}
	if err := bare.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
}
