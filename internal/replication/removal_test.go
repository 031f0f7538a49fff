package replication

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestRemoveReplicaRoundTrip(t *testing.T) {
	p := tinyProblem(t, 10)
	s := p.NewSchema()
	base := s.TotalCost()
	dPlace, err := s.PlaceReplica(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	dRemove, err := s.RemoveReplica(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dPlace+dRemove != 0 {
		t.Fatalf("place delta %d + remove delta %d != 0", dPlace, dRemove)
	}
	if s.TotalCost() != base {
		t.Fatalf("cost %d after round trip, want %d", s.TotalCost(), base)
	}
	if s.Placed() != 0 {
		t.Fatalf("placed counter %d after round trip", s.Placed())
	}
	if err := s.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveReplicaErrors(t *testing.T) {
	p := tinyProblem(t, 10)
	s := p.NewSchema()
	if _, err := s.RemoveReplica(0, 0); err == nil {
		t.Error("removing the primary accepted")
	}
	if _, err := s.RemoveReplica(0, 1); err == nil {
		t.Error("removing a non-existent replica accepted")
	}
	if _, err := s.RemoveReplica(-1, 1); err == nil {
		t.Error("negative object accepted")
	}
	if _, err := s.RemoveReplica(0, 99); err == nil {
		t.Error("out-of-range server accepted")
	}
}

func TestDeltaIfRemovedMatches(t *testing.T) {
	p := tinyProblem(t, 10)
	s := p.NewSchema()
	if _, err := s.PlaceReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PlaceReplica(0, 2); err != nil {
		t.Fatal(err)
	}
	want := s.DeltaIfRemoved(0, 1)
	got, err := s.RemoveReplica(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("DeltaIfRemoved %d != RemoveReplica %d", want, got)
	}
	if err := s.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: any interleaving of feasible placements and removals keeps the
// incremental cost exactly equal to the recomputed cost, with all
// invariants intact.
func TestMixedPlaceRemoveProperty(t *testing.T) {
	f := func(seed int64) bool {
		p, err := randomProblem(seed, 10, 25)
		if err != nil {
			return false
		}
		s := p.NewSchema()
		r := stats.NewRNG(seed)
		type placed struct {
			k int32
			m int
		}
		var pool []placed
		for step := 0; step < 60; step++ {
			if len(pool) > 0 && r.Bool(0.4) {
				idx := r.Intn(len(pool))
				pr := pool[idx]
				want := s.DeltaIfRemoved(pr.k, pr.m)
				got, err := s.RemoveReplica(pr.k, pr.m)
				if err != nil || got != want {
					return false
				}
				pool = append(pool[:idx], pool[idx+1:]...)
				continue
			}
			k := int32(r.Intn(p.N))
			m := r.Intn(p.M)
			if s.CanPlace(k, m) != nil {
				continue
			}
			if _, err := s.PlaceReplica(k, m); err != nil {
				return false
			}
			pool = append(pool, placed{k: k, m: m})
		}
		return s.ValidateInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRemovalSavesMatchesDelta: on every fuzzProblem instance, after random
// placements and again after random removals, the early-exit sign test
// agrees with DeltaIfRemoved(k, m) < 0 for every surplus replica, each
// object's cells grouped by nearest replica once per check. Odd objects
// lose their writes, so their removals save nothing on the write side.
func TestRemovalSavesMatchesDelta(t *testing.T) {
	var saves, keeps int
	for seed := int64(0); seed < 64; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			drawn := fuzzProblem(t, seed)
			w := drawn.Work.Clone()
			for _, row := range w.PerServer {
				for j := range row {
					if row[j].Object%2 == 1 {
						row[j].Writes = 0
					}
				}
			}
			w.Finalize()
			p, err := NewProblem(drawn.Cost, w, drawn.Capacity)
			if err != nil {
				t.Fatal(err)
			}
			s := p.NewSchema()
			r := stats.NewRNG(seed)
			// Every other try places only where it lowers the OTC, so some
			// copies serve reads worth more than their updates cost.
			for step := 0; step < 12*p.N; step++ {
				k, m := int32(r.Intn(p.N)), r.Intn(p.M)
				if s.CanPlace(k, m) == nil && (step%2 == 0 || s.DeltaIfPlaced(k, m) < 0) {
					if _, err := s.PlaceReplica(k, m); err != nil {
						t.Fatal(err)
					}
				}
			}
			check := func(when string) {
				var x Served
				for k := int32(0); int(k) < p.N; k++ {
					x.Reset(s, k)
					for _, m := range s.Replicas(k) {
						if m == p.Work.Primary[k] {
							continue
						}
						want := s.DeltaIfRemoved(k, int(m)) < 0
						if got := x.RemovalSaves(int(m)); got != want {
							t.Fatalf("%s: RemovalSaves(%d, %d) = %v, DeltaIfRemoved %d", when, k, m, got, s.DeltaIfRemoved(k, int(m)))
						}
						if want {
							saves++
						} else {
							keeps++
						}
					}
				}
			}
			check("after placements")
			for k := int32(0); int(k) < p.N; k++ {
				for _, m := range append([]int32(nil), s.Replicas(k)...) {
					if m != p.Work.Primary[k] && r.Bool(0.3) {
						if _, err := s.RemoveReplica(k, int(m)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			check("after removals")
		})
	}
	if saves == 0 || keeps == 0 {
		t.Fatalf("one-sided property: %d saving removals, %d costly ones", saves, keeps)
	}
	t.Logf("%d saving removals, %d costly ones", saves, keeps)
}
