package adaptive

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/agtram"
	"repro/internal/replication"
	"repro/internal/stats"
	"repro/internal/testutil"
	"repro/internal/topology"
	"repro/internal/workload"
)

func testSystem(t *testing.T, seed int64, epochs int) (replication.CostFn, []*workload.Workload, []int64) {
	t.Helper()
	ws, err := GenerateEpochs(workload.SyntheticConfig{
		Servers: 16, Objects: 80, Requests: 6000, RWRatio: 0.9, Seed: seed,
	}, epochs)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(seed + 99)
	g, err := topology.Random(16, 0.3, topology.DefaultWeights, r)
	if err != nil {
		t.Fatal(err)
	}
	caps, err := replication.GenerateCapacities(ws[0], 20, r)
	if err != nil {
		t.Fatal(err)
	}
	return topology.AllPairs(g, 0), ws, caps
}

func TestGenerateEpochsFixedCatalogue(t *testing.T) {
	ws, err := GenerateEpochs(workload.SyntheticConfig{
		Servers: 8, Objects: 40, Requests: 2000, RWRatio: 0.9, Seed: 1,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 {
		t.Fatalf("got %d epochs", len(ws))
	}
	for e := 1; e < 4; e++ {
		if err := sameSystem(ws[0], ws[e]); err != nil {
			t.Fatalf("epoch %d catalogue drifted: %v", e, err)
		}
	}
	// Demand must actually change between epochs.
	same := true
	for i := 0; i < ws[0].M && same; i++ {
		a, b := ws[0].Demands(i), ws[1].Demands(i)
		if len(a) != len(b) {
			same = false
			break
		}
		for j := range a {
			if a[j] != b[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("epoch demand did not drift")
	}
	if _, err := GenerateEpochs(workload.SyntheticConfig{}, 0); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

func TestRunSingleEpochMatchesMechanism(t *testing.T) {
	cost, ws, caps := testSystem(t, 2, 1)
	res, err := Run(context.Background(), cost, ws, caps, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 1 {
		t.Fatalf("got %d epoch stats", len(res.Epochs))
	}
	e := res.Epochs[0]
	if e.Kept != 0 || e.Dropped != 0 {
		t.Fatalf("first epoch should start empty: %+v", e)
	}
	if e.Added <= 0 || e.Savings <= 0 {
		t.Fatalf("first epoch placed nothing: %+v", e)
	}
	if err := res.Final.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRunMigratesUnderDrift(t *testing.T) {
	cost, ws, caps := testSystem(t, 3, 5)
	res, err := Run(context.Background(), cost, ws, caps, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 5 {
		t.Fatalf("got %d epochs", len(res.Epochs))
	}
	migrated := 0
	for e := 1; e < 5; e++ {
		st := res.Epochs[e]
		migrated += st.Migration
		if st.Savings <= 0 {
			t.Fatalf("epoch %d: savings %.2f", e, st.Savings)
		}
	}
	if migrated == 0 {
		t.Fatal("demand drift triggered no migration at all")
	}
	if err := res.Final.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Migrating must beat freezing the initial placement across drifting
// epochs — the reason the paper frames AGT-RAM as a protocol.
func TestMigrationBeatsFrozenPlacement(t *testing.T) {
	cost, ws, caps := testSystem(t, 4, 6)
	adaptiveRes, err := Run(context.Background(), cost, ws, caps, Config{})
	if err != nil {
		t.Fatal(err)
	}
	frozenRes, err := Run(context.Background(), cost, ws, caps, Config{FreezePlacement: true})
	if err != nil {
		t.Fatal(err)
	}
	if adaptiveRes.MeanSavings() <= frozenRes.MeanSavings() {
		t.Fatalf("adaptive %.2f%% should beat frozen %.2f%%",
			adaptiveRes.MeanSavings(), frozenRes.MeanSavings())
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(context.Background(), nil, nil, nil, Config{}); err == nil {
		t.Fatal("empty epochs accepted")
	}
	cost, ws, caps := testSystem(t, 5, 2)
	// Corrupt the second epoch's catalogue.
	ws[1].ObjectSize[0]++
	if _, err := Run(context.Background(), cost, ws, caps, Config{}); err == nil {
		t.Fatal("catalogue drift accepted")
	}
	ws[1].ObjectSize[0]--
	ws[1].Primary[3] = (ws[1].Primary[3] + 1) % int32(ws[1].M)
	if _, err := Run(context.Background(), cost, ws, caps, Config{}); err == nil {
		t.Fatal("primary drift accepted")
	}
}

func TestMeanSavingsEmpty(t *testing.T) {
	if (&Result{}).MeanSavings() != 0 {
		t.Fatal("empty result should average to 0")
	}
}

// Property: the adaptive loop preserves schema invariants for arbitrary
// drift seeds, and every epoch's final placement never costs more than that
// epoch's primary-only baseline.
func TestAdaptiveValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		ws, err := GenerateEpochs(workload.SyntheticConfig{
			Servers: 10, Objects: 40, Requests: 3000, RWRatio: 0.85, Seed: seed,
		}, 3)
		if err != nil {
			return false
		}
		r := stats.NewRNG(seed + 1)
		g, err := topology.Random(10, 0.4, topology.DefaultWeights, r)
		if err != nil {
			return false
		}
		caps, err := replication.GenerateCapacities(ws[0], 25, r)
		if err != nil {
			return false
		}
		res, err := Run(context.Background(), topology.AllPairs(g, 0), ws, caps, Config{})
		if err != nil {
			return false
		}
		for _, e := range res.Epochs {
			if e.Cost > e.BaseCost {
				return false
			}
		}
		return res.Final.ValidateInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// epochGolden is one epoch's pinned outcome.
type epochGolden struct {
	Kept, Dropped, Added int
	Cost                 int64
}

// TestRunGolden pins every epoch's Kept/Dropped/Added/Cost on three seeds,
// with migration on and frozen. The values were recorded from the
// hand-rolled mechanism loop that agtram.SolveIncrementalFrom replaced, so
// they hold the migration path to the same placements.
func TestRunGolden(t *testing.T) {
	configs := map[string]Config{
		"migrating": {},
		"frozen":    {FreezePlacement: true},
	}
	golden := []struct {
		seed   int64
		config string
		epochs []epochGolden
	}{
		{2, "migrating", []epochGolden{{0, 0, 144, 113368}, {83, 61, 123, 96942}, {103, 103, 102, 124730}, {107, 98, 104, 196999}}},
		{2, "frozen", []epochGolden{{0, 0, 144, 113368}, {144, 0, 0, 166236}, {144, 0, 0, 225814}, {144, 0, 0, 318279}}},
		{7, "migrating", []epochGolden{{0, 0, 151, 64808}, {81, 70, 100, 81932}, {93, 88, 106, 99852}, {97, 102, 108, 82719}}},
		{7, "frozen", []epochGolden{{0, 0, 151, 64808}, {151, 0, 0, 144873}, {151, 0, 0, 166691}, {151, 0, 0, 154936}}},
		{13, "migrating", []epochGolden{{0, 0, 143, 104963}, {86, 57, 103, 257410}, {96, 93, 94, 151797}, {94, 96, 103, 115859}}},
		{13, "frozen", []epochGolden{{0, 0, 143, 104963}, {143, 0, 0, 489457}, {143, 0, 0, 309404}, {143, 0, 0, 196956}}},
	}
	for _, g := range golden {
		cost, ws, caps := testSystem(t, g.seed, len(g.epochs))
		res, err := Run(context.Background(), cost, ws, caps, configs[g.config])
		if err != nil {
			t.Fatalf("seed %d %s: %v", g.seed, g.config, err)
		}
		for e, want := range g.epochs {
			st := res.Epochs[e]
			got := epochGolden{st.Kept, st.Dropped, st.Added, st.Cost}
			if got != want {
				t.Errorf("seed %d %s epoch %d: got %+v, want %+v", g.seed, g.config, e, got, want)
			}
		}
	}
}

// dropHarmfulFixpoint is the drop step as full sweeps of DeltaIfRemoved
// tests, repeated until a sweep drops nothing. It is the reference
// dropHarmful's single Served sweep is held to.
func dropHarmfulFixpoint(s *replication.Schema) int {
	p := s.Problem()
	dropped := 0
	for {
		improved := false
		for k := range int32(p.N) {
			for _, m := range slices.Clone(s.Replicas(k)) {
				if m == p.Work.Primary[k] || s.DeltaIfRemoved(k, int(m)) >= 0 {
					continue
				}
				if _, err := s.RemoveReplica(k, int(m)); err == nil {
					dropped++
					improved = true
				}
			}
		}
		if !improved {
			return dropped
		}
	}
}

// checkOneSweep runs dropHarmful and the fixpoint reference on clones of s.
// Both must drop the same number of copies and leave the same placement,
// and no surplus copy may be left whose removal lowers the OTC. It returns
// the number of copies dropped.
func checkOneSweep(t *testing.T, name string, s *replication.Schema) int {
	t.Helper()
	got, want := s.Clone(), s.Clone()
	dropped, wantDropped := dropHarmful(got), dropHarmfulFixpoint(want)
	if dropped != wantDropped {
		t.Fatalf("%s: one sweep dropped %d copies, the fixpoint %d", name, dropped, wantDropped)
	}
	if !reflect.DeepEqual(got.Matrix(), want.Matrix()) || got.TotalCost() != want.TotalCost() {
		t.Fatalf("%s: one sweep left OTC %d, the fixpoint %d, or another matrix", name, got.TotalCost(), want.TotalCost())
	}
	p := got.Problem()
	for k := range int32(p.N) {
		for _, m := range got.Replicas(k) {
			if m == p.Work.Primary[k] {
				continue
			}
			if d := got.DeltaIfRemoved(k, int(m)); d < 0 {
				t.Fatalf("%s: removing object %d's copy on %d still saves %d", name, k, m, -d)
			}
		}
	}
	if err := got.ValidateInvariants(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return dropped
}

// TestDropHarmfulOneSweep: one Served sweep reaches the drop step's
// fixpoint, on random feasible placements and on the placements the
// adaptive epochs carry across a demand redraw.
func TestDropHarmfulOneSweep(t *testing.T) {
	dropped := 0
	for seed := int64(1); seed <= 20; seed++ {
		p := testutil.MustBuild(testutil.Small(seed))
		s := p.NewSchema()
		r := stats.NewRNG(seed)
		for range 4 * p.N {
			k, m := int32(r.Intn(p.N)), r.Intn(p.M)
			if s.CanPlace(k, m) != nil {
				continue
			}
			if _, err := s.PlaceReplica(k, m); err != nil {
				t.Fatal(err)
			}
		}
		dropped += checkOneSweep(t, fmt.Sprintf("random placement, seed %d", seed), s)
	}
	for _, seed := range []int64{2, 7, 13} {
		cost, ws, caps := testSystem(t, seed, 4)
		var prev [][]int32
		for e, w := range ws {
			prob, err := replication.NewProblem(cost, w, caps)
			if err != nil {
				t.Fatal(err)
			}
			s, _ := prob.CarryOver(prev)
			dropped += checkOneSweep(t, fmt.Sprintf("seed %d epoch %d", seed, e), s)
			dropHarmful(s)
			sol, err := agtram.SolveIncrementalFrom(context.Background(), s, agtram.Config{})
			if err != nil {
				t.Fatal(err)
			}
			prev = sol.Schema.Matrix()
		}
	}
	if dropped == 0 {
		t.Fatal("no copy was dropped, so nothing was tested")
	}
}
