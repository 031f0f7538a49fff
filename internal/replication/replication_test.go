package replication

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// tinyProblem: 3 servers on a line (0-1-2, unit edges), 2 objects.
//
//	object 0: size 2, primary at server 0
//	object 1: size 1, primary at server 2
//	server 0: reads obj1 x10
//	server 1: reads obj0 x4, writes obj0 x1
//	server 2: reads obj0 x6, writes obj1 x2
func tinyProblem(t testing.TB, capacity int64) *Problem {
	t.Helper()
	w := workload.New(3, 2)
	w.ObjectSize[0], w.ObjectSize[1] = 2, 1
	w.Primary[0], w.Primary[1] = 0, 2
	w.PerServer[0] = []workload.Demand{{Object: 1, Reads: 10}}
	w.PerServer[1] = []workload.Demand{{Object: 0, Reads: 4, Writes: 1}}
	w.PerServer[2] = []workload.Demand{{Object: 0, Reads: 6}, {Object: 1, Writes: 2}}
	w.Finalize()
	dist := topology.AllPairs(topology.Line(3), 1)
	caps := []int64{capacity, capacity, capacity}
	p, err := NewProblem(dist, w, caps)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBaseCostByHand(t *testing.T) {
	p := tinyProblem(t, 10)
	s := p.NewSchema()
	// Primary-only OTC:
	//  server0 reads obj1 from primary 2: 10*1*c(0,2)=10*1*2 = 20
	//  server1 reads obj0 from primary 0: 4*2*1 = 8
	//  server1 writes obj0: 1*2*(c(1,0)+0) = 2
	//  server2 reads obj0: 6*2*2 = 24
	//  server2 writes obj1 to primary 2: 2*1*(0+0) = 0
	want := int64(20 + 8 + 2 + 24)
	if s.BaseCost() != want {
		t.Fatalf("base cost = %d, want %d", s.BaseCost(), want)
	}
	if s.TotalCost() != want || s.Savings() != 0 {
		t.Fatalf("initial state wrong: cost=%d savings=%v", s.TotalCost(), s.Savings())
	}
}

// TestPrimaryCostTable checks NewProblem's c(i, P_k) table and base OTC
// against the oracle, on the row-view path (a dense matrix) and the At
// path (a synthetic metric).
func TestPrimaryCostTable(t *testing.T) {
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Servers: 12, Objects: 40, Requests: 3000, RWRatio: 0.7, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Random(12, 0.3, topology.DefaultWeights, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]int64, 12)
	for i := range caps {
		caps[i] = w.TotalPrimarySize()
	}
	for _, cost := range []CostFn{topology.AllPairs(g, 1), fuzzCost{n: 12}} {
		p, err := NewProblem(cost, w, caps)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < p.M; i++ {
			for slot, d := range p.Work.PerServer[i] {
				want := cost.At(i, int(p.Work.Primary[d.Object]))
				if got := p.PrimaryCost(p.CellBase()[i] + int32(slot)); got != want {
					t.Fatalf("%T: c(%d, P_%d) = %d, oracle says %d", cost, i, d.Object, got, want)
				}
			}
		}
		if got, want := p.BaseCost(), p.NewSchema().RecomputeCost(); got != want {
			t.Fatalf("%T: base OTC %d, recomputed %d", cost, got, want)
		}
	}
}

func TestPlaceReplicaByHand(t *testing.T) {
	p := tinyProblem(t, 10)
	s := p.NewSchema()
	// Place obj0 on server 2.
	// Read side: server2's reads of obj0 go from cost 2 to 0: 6*2*(0-2) = -24.
	//            server1's NN stays primary 0 (c=1) vs c(1,2)=1: tie, no change.
	// Write side: total writes of obj0 = 1 (from server1), new replica at 2:
	//            o*c(P0,2)*(W-w_2k) = 2*2*(1-0) = +4.
	delta, err := s.PlaceReplica(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if delta != -20 {
		t.Fatalf("delta = %d, want -20", delta)
	}
	if s.TotalCost() != 54-20 {
		t.Fatalf("cost = %d, want 34", s.TotalCost())
	}
	if err := s.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.Placed() != 1 {
		t.Fatalf("Placed = %d", s.Placed())
	}
	if !s.HasReplica(0, 2) || s.HasReplica(0, 1) {
		t.Fatal("replica membership wrong")
	}
	if s.Residual(2) != 10-1-2 { // capacity 10, primary obj1 size 1, replica obj0 size 2
		t.Fatalf("residual = %d", s.Residual(2))
	}
}

func TestNNUpdates(t *testing.T) {
	p := tinyProblem(t, 10)
	s := p.NewSchema()
	if nn := s.NN(0, 1); nn != 2 {
		t.Fatalf("initial NN(0,1) = %d, want primary 2", nn)
	}
	if _, err := s.PlaceReplica(1, 1); err != nil {
		t.Fatal(err)
	}
	if nn := s.NN(0, 1); nn != 1 {
		t.Fatalf("NN(0,1) after replica on 1 = %d, want 1", nn)
	}
	// NN for a server with no demand on the object is computed on the fly.
	if nn := s.NN(1, 1); nn != 1 {
		t.Fatalf("NN(1,1) = %d, want itself", nn)
	}
}

func TestCanPlaceErrors(t *testing.T) {
	p := tinyProblem(t, 3)
	s := p.NewSchema()
	if err := s.CanPlace(-1, 0); err == nil {
		t.Error("negative object accepted")
	}
	if err := s.CanPlace(5, 0); err == nil {
		t.Error("out-of-range object accepted")
	}
	if err := s.CanPlace(0, -1); err == nil {
		t.Error("negative server accepted")
	}
	if err := s.CanPlace(0, 3); err == nil {
		t.Error("out-of-range server accepted")
	}
	if err := s.CanPlace(0, 0); err == nil {
		t.Error("placing on primary accepted")
	}
	// Server 2 has capacity 3, primary load 1 → residual 2; obj0 size 2 fits,
	// then nothing else does.
	if _, err := s.PlaceReplica(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.CanPlace(1, 2); err == nil {
		t.Error("over-capacity placement accepted")
	}
	if _, err := s.PlaceReplica(0, 2); err == nil {
		t.Error("duplicate placement accepted")
	}
}

func TestDeltaMatchesPlacement(t *testing.T) {
	p := tinyProblem(t, 10)
	s := p.NewSchema()
	d1 := s.DeltaIfPlaced(0, 1)
	got, err := s.PlaceReplica(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != got {
		t.Fatalf("DeltaIfPlaced %d != PlaceReplica %d", d1, got)
	}
	if err := s.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalBenefitByHand(t *testing.T) {
	p := tinyProblem(t, 10)
	s := p.NewSchema()
	// Agent 2 considering obj0: reads 6, size 2, NN cost 2 → read side 24.
	// Update side: other writers (server1, w=1) * size 2 * c(P0=0, 2)=2 → 4.
	if b := s.LocalBenefit(2, 0); b != 24-4 {
		t.Fatalf("LocalBenefit(2,0) = %d, want 20", b)
	}
	// Agent 0 considering obj0: no demand → pure cost (0 - 1*2*c(0,0)=0).
	if b := s.LocalBenefit(0, 0); b != 0 {
		t.Fatalf("LocalBenefit(0,0) = %d, want 0 (no reads, primary at 0)", b)
	}
	// Agent 1 considering obj1: no reads on obj1, writers elsewhere (server2,
	// w=2), c(P1=2, 1) = 1, size 1 → benefit -2.
	if b := s.LocalBenefit(1, 1); b != -2 {
		t.Fatalf("LocalBenefit(1,1) = %d, want -2", b)
	}
}

func TestGenerateCapacities(t *testing.T) {
	w := workload.New(4, 3)
	w.ObjectSize[0], w.ObjectSize[1], w.ObjectSize[2] = 10, 20, 30
	w.Primary[0], w.Primary[1], w.Primary[2] = 0, 0, 1
	w.Finalize()
	r := stats.NewRNG(1)
	caps, err := GenerateCapacities(w, 50, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != 4 {
		t.Fatalf("len = %d", len(caps))
	}
	// Server 0 holds primaries of size 30; capacity must cover it.
	if caps[0] < 30 {
		t.Fatalf("capacity %d below primary load", caps[0])
	}
	// Target is 50% x 60 x 20/4 = 150; jitter in [0.5,1.5) → [75,225).
	for i, c := range caps {
		if c > 225 {
			t.Fatalf("server %d capacity %d above jitter ceiling", i, c)
		}
		if c < 75 && c != 75 { // floor could only raise, never lower
			if c < 75 {
				t.Fatalf("server %d capacity %d below jitter floor", i, c)
			}
		}
	}
	if _, err := GenerateCapacities(w, 0, r); err == nil {
		t.Error("zero percent accepted")
	}
}

func TestNewProblemErrors(t *testing.T) {
	w := workload.New(3, 1)
	w.ObjectSize[0] = 1
	w.Primary[0] = 0
	w.Finalize()
	dist := topology.AllPairs(topology.Line(3), 1)
	if _, err := NewProblem(dist, w, []int64{1, 1}); err == nil {
		t.Error("wrong capacity length accepted")
	}
	if _, err := NewProblem(dist, w, []int64{0, 1, 1}); err == nil {
		t.Error("capacity below primary load accepted")
	}
	small := topology.AllPairs(topology.Line(2), 1)
	if _, err := NewProblem(small, w, []int64{1, 1, 1}); err == nil {
		t.Error("undersized cost matrix accepted")
	}
	bad := workload.New(1, 1)
	bad.ObjectSize[0] = 0
	if _, err := NewProblem(dist, bad, []int64{1}); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestClone(t *testing.T) {
	p := tinyProblem(t, 10)
	s := p.NewSchema()
	if _, err := s.PlaceReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if c.TotalCost() != s.TotalCost() || c.Placed() != s.Placed() {
		t.Fatal("clone differs from original")
	}
	// Mutating the clone must not affect the original.
	if _, err := c.PlaceReplica(1, 1); err != nil {
		t.Fatal(err)
	}
	if s.HasReplica(1, 1) {
		t.Fatal("clone mutation leaked into original")
	}
	if err := s.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixExport(t *testing.T) {
	p := tinyProblem(t, 10)
	s := p.NewSchema()
	if _, err := s.PlaceReplica(0, 2); err != nil {
		t.Fatal(err)
	}
	m := s.Matrix()
	if len(m) != 2 || len(m[0]) != 2 || m[0][0] != 0 || m[0][1] != 2 {
		t.Fatalf("matrix export wrong: %v", m)
	}
	// Export is a copy.
	m[0][0] = 99
	if s.Replicas(0)[0] == 99 {
		t.Fatal("Matrix returned shared storage")
	}
}

func TestUniformCost(t *testing.T) {
	u := UniformCost{Nodes: 3, Weight: 7}
	if u.N() != 3 || u.At(0, 0) != 0 || u.At(0, 2) != 7 {
		t.Fatal("UniformCost wrong")
	}
}

// randomProblem builds a random but consistent instance for property tests.
func randomProblem(seed int64, m, n int) (*Problem, error) {
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Servers: m, Objects: n, Requests: 2000, RWRatio: 0.8, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	r := stats.NewRNG(seed + 1)
	g, err := topology.Random(m, 0.3, topology.DefaultWeights, r)
	if err != nil {
		return nil, err
	}
	caps, err := GenerateCapacities(w, 30, r)
	if err != nil {
		return nil, err
	}
	return NewProblem(topology.AllPairs(g, 2), w, caps)
}

// Property: after any sequence of random feasible placements, the
// incremental cost equals the recomputed cost and all invariants hold.
func TestIncrementalCostProperty(t *testing.T) {
	f := func(seed int64) bool {
		p, err := randomProblem(seed, 12, 30)
		if err != nil {
			return false
		}
		s := p.NewSchema()
		r := stats.NewRNG(seed)
		for step := 0; step < 40; step++ {
			k := int32(r.Intn(p.N))
			m := r.Intn(p.M)
			if s.CanPlace(k, m) != nil {
				continue
			}
			want := s.DeltaIfPlaced(k, m)
			got, err := s.PlaceReplica(k, m)
			if err != nil || got != want {
				return false
			}
		}
		return s.ValidateInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: placing a replica never increases any server's read cost, so a
// placement with zero write volume can only decrease total OTC.
func TestReadOnlyPlacementsMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		w, err := workload.Synthetic(workload.SyntheticConfig{
			Servers: 10, Objects: 20, Requests: 1000, RWRatio: 1.0, Seed: seed,
		})
		if err != nil {
			return false
		}
		r := stats.NewRNG(seed)
		g, err := topology.Random(10, 0.3, topology.DefaultWeights, r)
		if err != nil {
			return false
		}
		caps, err := GenerateCapacities(w, 40, r)
		if err != nil {
			return false
		}
		p, err := NewProblem(topology.AllPairs(g, 1), w, caps)
		if err != nil {
			return false
		}
		s := p.NewSchema()
		prev := s.TotalCost()
		for step := 0; step < 30; step++ {
			k := int32(r.Intn(p.N))
			m := r.Intn(p.M)
			if s.CanPlace(k, m) != nil {
				continue
			}
			if _, err := s.PlaceReplica(k, m); err != nil {
				return false
			}
			if s.TotalCost() > prev {
				return false
			}
			prev = s.TotalCost()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: LocalBenefit equals the true global delta restricted to the
// agent's own terms; in particular, when the agent is the only demander of
// the object, -LocalBenefit must equal DeltaIfPlaced exactly.
func TestLocalBenefitMatchesDeltaForSoleDemander(t *testing.T) {
	w := workload.New(3, 1)
	w.ObjectSize[0] = 3
	w.Primary[0] = 0
	w.PerServer[2] = []workload.Demand{{Object: 0, Reads: 5, Writes: 2}}
	w.Finalize()
	dist := topology.AllPairs(topology.Line(3), 1)
	p, err := NewProblem(dist, w, []int64{10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewSchema()
	if b, d := s.LocalBenefit(2, 0), s.DeltaIfPlaced(0, 2); b != -d {
		t.Fatalf("sole demander: benefit %d != -delta %d", b, d)
	}
}
