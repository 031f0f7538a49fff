package distoracle

import (
	"sync"
	"testing"

	"repro/internal/replication"
	"repro/internal/stats"
	"repro/internal/topology"
)

// diffAgainstAllPairs asserts bit-identity between an oracle and the dense
// AllPairs matrix over every pair.
func diffAgainstAllPairs(t *testing.T, name string, c replication.CostFn, exact *topology.DistMatrix) {
	t.Helper()
	n := exact.N()
	if c.N() != n {
		t.Fatalf("%s: N() = %d, want %d", name, c.N(), n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got, want := c.At(i, j), exact.At(i, j); got != want {
				t.Fatalf("%s: At(%d,%d) = %d, want %d", name, i, j, got, want)
			}
		}
	}
}

// Differential: the CSR-lazy oracle is bit-identical to AllPairs on random,
// power-law, and grid graphs, including with a cache far smaller than N
// (forcing evictions) and under the symmetric-row At fast path.
func TestCSRLazyMatchesAllPairs(t *testing.T) {
	r := stats.NewRNG(42)
	graphs := map[string]*topology.Graph{}
	g, err := topology.Random(120, 0.08, topology.DefaultWeights, r)
	if err != nil {
		t.Fatal(err)
	}
	graphs["random"] = g
	if g, err = topology.PowerLaw(150, 2, topology.DefaultWeights, r); err != nil {
		t.Fatal(err)
	}
	graphs["powerlaw"] = g
	graphs["grid"] = topology.Grid(9, 13)
	for name, g := range graphs {
		exact := topology.AllPairs(g, 0)
		diffAgainstAllPairs(t, name+"/big-cache", NewCSRLazy(g, g.N()), exact)
		diffAgainstAllPairs(t, name+"/cache-4", NewCSRLazy(g, 4), exact)
	}
}

// Differential: the landmark oracle with K = M (every node a landmark) is
// exact — the promised degenerate case.
func TestLandmarkKEqualsMExact(t *testing.T) {
	r := stats.NewRNG(7)
	g, err := topology.Random(100, 0.1, topology.DefaultWeights, r)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := NewLandmark(g, g.N(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if lm.K() != g.N() {
		t.Fatalf("K() = %d, want %d", lm.K(), g.N())
	}
	diffAgainstAllPairs(t, "landmark-K=M", lm, topology.AllPairs(g, 0))
}

// The landmark estimate is an upper bound on the true distance, never an
// underestimate, and is exact whenever one endpoint is a landmark.
func TestLandmarkUpperBound(t *testing.T) {
	r := stats.NewRNG(11)
	g, err := topology.PowerLaw(200, 2, topology.DefaultWeights, r)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := NewLandmark(g, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	exact := topology.AllPairs(g, 0)
	isLandmark := make(map[int32]bool)
	for _, id := range lm.Landmarks() {
		isLandmark[id] = true
	}
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			est, want := lm.At(i, j), exact.At(i, j)
			if est < want {
				t.Fatalf("At(%d,%d) = %d underestimates exact %d", i, j, est, want)
			}
			if (isLandmark[int32(i)] || isLandmark[int32(j)]) && est != want {
				t.Fatalf("At(%d,%d) = %d with landmark endpoint, want exact %d", i, j, est, want)
			}
		}
	}
	ed := lm.ErrorStats(g, 32, 1)
	if ed.Pairs == 0 || ed.MeanRel < 0 || ed.MaxRel < ed.P95Rel || ed.P95Rel < 0 {
		t.Fatalf("implausible error distribution: %+v", ed)
	}
}

// Differential: the tree oracle is bit-identical to AllPairs on random
// recursive trees and the deterministic tree fixtures.
func TestTreeMatchesAllPairs(t *testing.T) {
	r := stats.NewRNG(3)
	for _, n := range []int{1, 2, 3, 17, 180} {
		g, err := topology.RandomTree(n, topology.DefaultWeights, r)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTree(g)
		if err != nil {
			t.Fatal(err)
		}
		diffAgainstAllPairs(t, "random-tree", tr, topology.AllPairs(g, 0))
	}
	for name, g := range map[string]*topology.Graph{
		"star": topology.Star(50),
		"line": topology.Line(64),
	} {
		tr, err := NewTree(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		diffAgainstAllPairs(t, name, tr, topology.AllPairs(g, 0))
	}
}

func TestIsTreeAndBuildSelection(t *testing.T) {
	r := stats.NewRNG(5)
	tree, err := topology.RandomTree(300, topology.DefaultWeights, r)
	if err != nil {
		t.Fatal(err)
	}
	if !IsTree(tree) {
		t.Fatal("RandomTree output not recognized as tree")
	}
	ring := topology.Ring(10)
	if IsTree(ring) {
		t.Fatal("ring misclassified as tree")
	}
	if _, err := NewTree(ring); err == nil {
		t.Fatal("NewTree accepted a ring")
	}

	// Auto selection: tree -> Tree, small non-tree -> dense, large
	// non-tree -> CSR. Auto must never pick the approximate oracle.
	c, err := Build(tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if Kind(c) != "tree" {
		t.Fatalf("auto on tree picked %s", Kind(c))
	}
	c, err = Build(ring, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if Kind(c) != "dense" {
		t.Fatalf("auto on small ring picked %s", Kind(c))
	}
	big, err := topology.PowerLaw(DenseAutoThreshold+1, 2, topology.DefaultWeights, r)
	if err != nil {
		t.Fatal(err)
	}
	c, err = Build(big, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if Kind(c) != "csr-lazy" {
		t.Fatalf("auto on large graph picked %s", Kind(c))
	}
	c, err = Build(ring, Options{Mode: ModeLandmark, Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if Kind(c) != "landmark" {
		t.Fatalf("explicit landmark picked %s", Kind(c))
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{
		"auto": ModeAuto, "": ModeAuto, "dense": ModeDense,
		"csr": ModeCSR, "csr-lazy": ModeCSR, "landmark": ModeLandmark, "tree": ModeTree,
	} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("ParseMode accepted bogus")
	}
	for _, m := range []Mode{ModeAuto, ModeDense, ModeCSR, ModeLandmark, ModeTree} {
		back, err := ParseMode(m.String())
		if err != nil || back != m {
			t.Fatalf("round trip %v -> %q -> %v, %v", m, m.String(), back, err)
		}
	}
}

// Concurrent Row/At hammering with a tiny cache: exercises the in-flight
// dedup and eviction paths under the race detector, and checks every
// returned value stays exact.
func TestCSRLazyConcurrent(t *testing.T) {
	r := stats.NewRNG(9)
	g, err := topology.Random(80, 0.1, topology.DefaultWeights, r)
	if err != nil {
		t.Fatal(err)
	}
	exact := topology.AllPairs(g, 0)
	c := NewCSRLazy(g, 3)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := stats.NewRNG(seed)
			for it := 0; it < 400; it++ {
				i, j := rr.Intn(80), rr.Intn(80)
				if it%2 == 0 {
					if got := c.At(i, j); got != exact.At(i, j) {
						errs <- "At mismatch"
						return
					}
				} else if row := c.Row(i); row[j] != exact.At(i, j) {
					errs <- "Row mismatch"
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
	st := c.Stats()
	if st.CachedRows > 3 {
		t.Fatalf("cache exceeded bound: %+v", st)
	}
	if st.Misses == 0 {
		t.Fatalf("expected misses, got %+v", st)
	}
	// The row seam the hot per-demander walks use.
	var _ replication.RowCostFn = c
}

// topology.AllPairs overflow guard: n beyond MaxDenseNodes must panic
// loudly instead of silently wrapping int32 index math. (Constructing the
// guard case via Build returns an error instead.)
func TestDenseOverflowGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AllPairs beyond MaxDenseNodes did not panic")
		}
	}()
	g := topology.NewGraph(topology.MaxDenseNodes + 1)
	topology.AllPairs(g, 1)
}
