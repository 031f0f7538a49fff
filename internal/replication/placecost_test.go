package replication_test

import (
	"testing"

	"repro/internal/distoracle"
	"repro/internal/replication"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// skewCost is a cost function no oracle in the repository is: asymmetric,
// with a nonzero diagonal. Under it a block entry read at the transposed
// position or on the diagonal differs from the oracle's, which a symmetric
// zero-diagonal metric would hide.
type skewCost struct{ replication.CostFn }

func (c skewCost) At(i, j int) int32 {
	return c.CostFn.At(i, j) + 1 + int32(i%3) + 2*int32(j%2)
}

// TestPlaceCostsMatchOracle checks the co-demander blocks against the
// oracle on every kind of cost function a Problem is built over: row
// oracles (dense, CSR-lazy with a two-row cache), At-only oracles
// (landmark, tree) and skewCost. For each it checks that
//
//   - an object has a block iff d_k² ≤ M;
//   - PlaceCosts, PlaceCost and every block entry answer the distance an
//     oracle-backed placement reads: Row(m)[x] under a RowCostFn, At(x, m)
//     otherwise, for every object, every server m and every demander x;
//   - placements of priced objects on their own demanders ask a lazy
//     oracle for nothing;
//   - random placements of priced and unpriced objects, on demanders and
//     on other servers, return DeltaIfPlaced's delta and keep the NN
//     tables exact, and ValidateInvariants holds where c is a metric.
func TestPlaceCostsMatchOracle(t *testing.T) {
	const servers = 40 // priced iff d_k ≤ 6
	r := stats.NewRNG(11)
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Servers: servers, Objects: 80, Requests: 4000, RWRatio: 0.8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	caps, err := replication.GenerateCapacities(w, 40, r)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Random(servers, 0.15, topology.DefaultWeights, r)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := topology.RandomTree(servers, topology.DefaultWeights, r)
	if err != nil {
		t.Fatal(err)
	}
	dense := topology.AllPairs(g, 1)
	landmark, err := distoracle.NewLandmark(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	treeOracle, err := distoracle.NewTree(tree)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		cost   replication.CostFn
		rows   bool // the oracle offers rows
		metric bool // symmetric with a zero diagonal
	}{
		{"dense", dense, true, true},
		{"csr-lazy", distoracle.NewCSRLazy(g, 2), true, true},
		{"landmark", landmark, false, true},
		{"tree", treeOracle, false, true},
		{"skew", skewCost{dense}, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, rows := tc.cost.(replication.RowCostFn); rows != tc.rows {
				t.Fatalf("oracle offers rows: %v, want %v", rows, tc.rows)
			}
			p, err := replication.NewProblem(tc.cost, w, caps)
			if err != nil {
				t.Fatal(err)
			}
			// read is the distance an oracle-backed placement of an object on
			// m reads for its demander x.
			read := func(m, x int) int32 {
				if rc, ok := tc.cost.(replication.RowCostFn); ok {
					return rc.Row(m)[x]
				}
				return tc.cost.At(x, m)
			}
			checkBlocks(t, p, read)
			checkPlaceCosts(t, p, read)
			if lazy, ok := tc.cost.(*distoracle.CSRLazy); ok {
				checkPricedFetchesNothing(t, p, lazy)
			}
			checkRandomPlacements(t, p, tc.metric)
		})
	}
}

// checkBlocks checks which objects have a block and every block entry.
func checkBlocks(t *testing.T, p *replication.Problem, read func(m, x int) int32) {
	t.Helper()
	var priced, unpriced int
	for k := int32(0); int(k) < p.N; k++ {
		refs := p.DemandersOf(k)
		d := len(refs)
		if d == 0 {
			continue
		}
		blk := p.CoBlock(k)
		if want := d*d <= p.M; (blk != nil) != want {
			t.Fatalf("object %d with %d demanders (M=%d): block %v, want %v", k, d, p.M, blk != nil, want)
		}
		if blk == nil {
			unpriced++
			continue
		}
		priced++
		if len(blk) != d*d {
			t.Fatalf("object %d: block has %d entries, want %d", k, len(blk), d*d)
		}
		for a, win := range refs {
			for b, x := range refs {
				if got, want := blk[a*d+b], read(int(win.Server), int(x.Server)); got != want {
					t.Fatalf("object %d block[%d][%d] = %d, want %d", k, a, b, got, want)
				}
			}
		}
	}
	if priced == 0 || unpriced == 0 {
		t.Fatalf("instance needs priced and unpriced objects: %d priced, %d unpriced", priced, unpriced)
	}
}

// checkPlaceCosts checks PlaceCosts and PlaceCost for every object, every
// server and every demander.
func checkPlaceCosts(t *testing.T, p *replication.Problem, read func(m, x int) int32) {
	t.Helper()
	for k := int32(0); int(k) < p.N; k++ {
		refs := p.DemandersOf(k)
		for m := 0; m < p.M; m++ {
			pc := p.PlaceCosts(k, m)
			for b, ref := range refs {
				want := read(m, int(ref.Server))
				if got := pc.Demander(b, ref.Server); got != want {
					t.Fatalf("PlaceCosts(%d, %d).Demander(%d, %d) = %d, want %d", k, m, b, ref.Server, got, want)
				}
				if got := p.PlaceCost(k, m, int(ref.Server)); got != want {
					t.Fatalf("PlaceCost(%d, %d, %d) = %d, want %d", k, m, ref.Server, got, want)
				}
			}
		}
	}
}

// checkPricedFetchesNothing checks that the block answers first: placing a
// priced object on one of its demanders leaves the lazy oracle untouched.
func checkPricedFetchesNothing(t *testing.T, p *replication.Problem, lazy *distoracle.CSRLazy) {
	t.Helper()
	before := lazy.Stats()
	for k := int32(0); int(k) < p.N; k++ {
		if p.CoBlock(k) == nil {
			continue
		}
		refs := p.DemandersOf(k)
		for _, win := range refs {
			pc := p.PlaceCosts(k, int(win.Server))
			for b, x := range refs {
				pc.Demander(b, x.Server)
				p.PlaceCost(k, int(win.Server), int(x.Server))
			}
		}
	}
	if after := lazy.Stats(); after != before {
		t.Fatalf("priced placements asked the oracle for rows: %+v -> %+v", before, after)
	}
}

// checkRandomPlacements places random replicas until every pairing of
// priced/unpriced object and demander/other server has placed some, each
// returning DeltaIfPlaced's delta, then checks the NN tables against the
// replica sets and, for a metric, the full invariants.
func checkRandomPlacements(t *testing.T, p *replication.Problem, metric bool) {
	t.Helper()
	rng := stats.NewRNG(7)
	s := p.NewSchema()
	var cover [2][2]int // [priced][demander]
	for step := 0; step < 2000; step++ {
		k := int32(rng.Intn(p.N))
		refs := p.DemandersOf(k)
		m := rng.Intn(p.M)
		if len(refs) > 0 && rng.Intn(2) == 0 {
			m = int(refs[rng.Intn(len(refs))].Server)
		}
		if s.CanPlace(k, m) != nil {
			continue
		}
		preview := s.DeltaIfPlaced(k, m)
		delta, err := s.PlaceReplica(k, m)
		if err != nil {
			t.Fatal(err)
		}
		if delta != preview {
			t.Fatalf("PlaceReplica(%d, %d) delta %d != DeltaIfPlaced %d", k, m, delta, preview)
		}
		demander := false
		for _, ref := range refs {
			demander = demander || int(ref.Server) == m
		}
		cover[b2i(p.CoBlock(k) != nil)][b2i(demander)]++
	}
	for pr := range cover {
		for dm := range cover[pr] {
			if cover[pr][dm] == 0 {
				t.Fatalf("no placement with priced=%v demander=%v: coverage %v", pr == 1, dm == 1, cover)
			}
		}
	}
	for i := 0; i < p.M; i++ {
		base := p.CellBase()[i]
		for slot, d := range p.Work.PerServer[i] {
			want := replication.Infinity32
			for _, j := range s.Replicas(d.Object) {
				if c := p.Cost.At(i, int(j)); c < want {
					want = c
				}
			}
			if got := s.NNCost(base + int32(slot)); got != want {
				t.Fatalf("server %d object %d: NN cost %d, want %d", i, d.Object, got, want)
			}
		}
	}
	if metric {
		if err := s.ValidateInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
