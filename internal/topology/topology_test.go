package topology

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestAddEdgeAndAccessors(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 7); err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.Edges() != 2 {
		t.Fatalf("N=%d Edges=%d, want 3 and 2", g.N(), g.Edges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d, want 2", g.Degree(1))
	}
	ds := g.DegreeSequence()
	if ds[0] != 2 || ds[1] != 1 || ds[2] != 1 {
		t.Fatalf("degree sequence %v", ds)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("self edge accepted")
	}
	if err := g.AddEdge(0, 3, 1); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, 1, 1); err == nil {
		t.Error("negative endpoint accepted")
	}
	if err := g.AddEdge(0, 1, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := g.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0, 2); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestConnectedAndComponents(t *testing.T) {
	g := NewGraph(4)
	must(g.AddEdge(0, 1, 1))
	must(g.AddEdge(2, 3, 1))
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	must(g.AddEdge(1, 2, 1))
	if !g.Connected() {
		t.Fatal("connected graph reported disconnected")
	}
	if !NewGraph(0).Connected() || !NewGraph(1).Connected() {
		t.Fatal("trivial graphs should be connected")
	}
}

func TestRandomGenerator(t *testing.T) {
	r := stats.NewRNG(1)
	for _, p := range []float64{0.4, 0.5, 0.6, 0.7, 0.8} {
		g, err := Random(60, p, DefaultWeights, r)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Connected() {
			t.Fatalf("Random(p=%v) not connected", p)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		// Edge density should be near p.
		maxEdges := 60 * 59 / 2
		density := float64(g.Edges()) / float64(maxEdges)
		if density < p-0.15 || density > p+0.15 {
			t.Fatalf("p=%v: density %v too far off", p, density)
		}
	}
}

func TestRandomErrors(t *testing.T) {
	r := stats.NewRNG(1)
	if _, err := Random(0, 0.5, DefaultWeights, r); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Random(5, -0.1, DefaultWeights, r); err == nil {
		t.Error("p<0 accepted")
	}
	if _, err := Random(5, 1.1, DefaultWeights, r); err == nil {
		t.Error("p>1 accepted")
	}
}

func TestRandomSparseStillConnected(t *testing.T) {
	// p=0 relies entirely on the connectivity patch.
	g, err := Random(50, 0, DefaultWeights, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("patched graph not connected")
	}
	if g.Edges() != 49 {
		t.Fatalf("expected spanning-tree edge count 49, got %d", g.Edges())
	}
}

func TestWaxmanGenerator(t *testing.T) {
	g, err := Waxman(80, 0.8, 0.4, DefaultWeights, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("Waxman graph not connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWaxmanErrors(t *testing.T) {
	r := stats.NewRNG(3)
	if _, err := Waxman(0, 0.5, 0.5, DefaultWeights, r); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Waxman(5, 0, 0.5, DefaultWeights, r); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := Waxman(5, 0.5, 1.5, DefaultWeights, r); err == nil {
		t.Error("beta>1 accepted")
	}
}

func TestPowerLawGenerator(t *testing.T) {
	g, err := PowerLaw(300, 2, DefaultWeights, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("PowerLaw graph not connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	ds := g.DegreeSequence()
	// Power-law: max degree should be much larger than the median degree.
	if ds[0] < 3*ds[len(ds)/2] {
		t.Fatalf("degree sequence not heavy-tailed: max=%d median=%d", ds[0], ds[len(ds)/2])
	}
}

func TestPowerLawSeedDeterministic(t *testing.T) {
	a, err := PowerLaw(300, 2, DefaultWeights, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := PowerLaw(300, 2, DefaultWeights, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < a.N(); u++ {
		if !slices.Equal(a.Neighbors(u), b.Neighbors(u)) {
			t.Fatalf("node %d: same-seed builds differ:\n%v\n%v", u, a.Neighbors(u), b.Neighbors(u))
		}
	}
}

func TestPowerLawSmall(t *testing.T) {
	// m >= n clamps; n=1 returns a single node.
	g, err := PowerLaw(1, 3, DefaultWeights, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1 || g.Edges() != 0 {
		t.Fatalf("single-node power law wrong: N=%d E=%d", g.N(), g.Edges())
	}
	g2, err := PowerLaw(4, 10, DefaultWeights, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Connected() {
		t.Fatal("clamped power law not connected")
	}
	if _, err := PowerLaw(0, 2, DefaultWeights, stats.NewRNG(5)); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := PowerLaw(5, 0, DefaultWeights, stats.NewRNG(5)); err == nil {
		t.Error("m=0 accepted")
	}
}

func TestTransitStub(t *testing.T) {
	cfg := TransitStubConfig{
		TransitDomains:  3,
		TransitSize:     4,
		StubsPerTransit: 2,
		StubSize:        3,
		IntraP:          0.5,
	}
	g, err := TransitStub(cfg, stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	wantN := 3 * 4 * (1 + 2*3)
	if g.N() != wantN {
		t.Fatalf("N = %d, want %d", g.N(), wantN)
	}
	if !g.Connected() {
		t.Fatal("transit-stub not connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTransitStubErrors(t *testing.T) {
	if _, err := TransitStub(TransitStubConfig{}, stats.NewRNG(1)); err == nil {
		t.Error("zero config accepted")
	}
	bad := TransitStubConfig{TransitDomains: 1, TransitSize: 1, StubSize: 1, IntraP: 2}
	if _, err := TransitStub(bad, stats.NewRNG(1)); err == nil {
		t.Error("IntraP > 1 accepted")
	}
}

func TestFixtures(t *testing.T) {
	ring := Ring(6)
	if ring.Edges() != 6 || !ring.Connected() {
		t.Fatalf("Ring(6): E=%d connected=%v", ring.Edges(), ring.Connected())
	}
	two := Ring(2)
	if two.Edges() != 1 {
		t.Fatalf("Ring(2) edges = %d, want 1", two.Edges())
	}
	grid := Grid(3, 4)
	if grid.N() != 12 || grid.Edges() != 3*3+2*4 {
		t.Fatalf("Grid(3,4): N=%d E=%d", grid.N(), grid.Edges())
	}
	star := Star(5)
	if star.N() != 6 || star.Degree(0) != 5 {
		t.Fatalf("Star(5): N=%d deg0=%d", star.N(), star.Degree(0))
	}
	line := Line(4)
	if line.Edges() != 3 {
		t.Fatalf("Line(4) edges = %d", line.Edges())
	}
	for _, g := range []*Graph{ring, two, grid, star, line} {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllPairsRing(t *testing.T) {
	g := Ring(8)
	m := AllPairs(g, 2)
	// On a unit-weight 8-cycle, d(i,j) = min(|i-j|, 8-|i-j|).
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			diff := i - j
			if diff < 0 {
				diff = -diff
			}
			want := diff
			if 8-diff < want {
				want = 8 - diff
			}
			if got := m.At(i, j); got != int32(want) {
				t.Fatalf("d(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestAllPairsLineWeights(t *testing.T) {
	g := NewGraph(4)
	must(g.AddEdge(0, 1, 2))
	must(g.AddEdge(1, 2, 3))
	must(g.AddEdge(2, 3, 4))
	must(g.AddEdge(0, 3, 20)) // longer direct edge must lose to the path
	m := AllPairs(g, 1)
	if m.At(0, 3) != 9 {
		t.Fatalf("d(0,3) = %d, want 9 (path through middle)", m.At(0, 3))
	}
	if m.At(0, 2) != 5 || m.At(1, 3) != 7 {
		t.Fatalf("unexpected distances: %d %d", m.At(0, 2), m.At(1, 3))
	}
}

func TestAllPairsValidateMetric(t *testing.T) {
	g, err := Random(70, 0.1, DefaultWeights, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	m := AllPairs(g, 0)
	if err := m.Validate(70); err != nil {
		t.Fatal(err)
	}
	if m.MaxFinite() <= 0 {
		t.Fatal("diameter should be positive")
	}
}

func TestAllPairsDisconnectedInfinity(t *testing.T) {
	g := NewGraph(3)
	must(g.AddEdge(0, 1, 1))
	m := AllPairs(g, 1)
	if m.At(0, 2) != Infinity || m.At(2, 0) != Infinity {
		t.Fatal("unreachable pair should be Infinity")
	}
	if m.At(0, 1) != 1 {
		t.Fatal("reachable pair wrong")
	}
}

func TestAllPairsWorkerCountsAgree(t *testing.T) {
	g, err := Random(50, 0.2, DefaultWeights, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	m1 := AllPairs(g, 1)
	m8 := AllPairs(g, 8)
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			if m1.At(i, j) != m8.At(i, j) {
				t.Fatalf("worker counts disagree at (%d,%d)", i, j)
			}
		}
	}
}

func TestAllPairsEmpty(t *testing.T) {
	m := AllPairs(NewGraph(0), 4)
	if m.N() != 0 {
		t.Fatal("empty graph should give empty matrix")
	}
}

func TestDistMatrixRow(t *testing.T) {
	g := Line(3)
	m := AllPairs(g, 1)
	row := m.Row(0)
	if len(row) != 3 || row[0] != 0 || row[1] != 1 || row[2] != 2 {
		t.Fatalf("Row(0) = %v", row)
	}
}

// Property: on any connected random graph, APSP distances are symmetric,
// zero-diagonal, and bounded by (n-1)*maxWeight.
func TestAllPairsProperty(t *testing.T) {
	f := func(seed int64, rawN uint8, rawP uint8) bool {
		n := int(rawN%30) + 2
		p := float64(rawP%100) / 100
		g, err := Random(n, p, DefaultWeights, stats.NewRNG(seed))
		if err != nil {
			return false
		}
		m := AllPairs(g, 2)
		bound := int32(n-1) * DefaultWeights.Hi
		for i := 0; i < n; i++ {
			if m.At(i, i) != 0 {
				return false
			}
			for j := 0; j < n; j++ {
				if m.At(i, j) != m.At(j, i) {
					return false
				}
				if m.At(i, j) > bound {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := NewGraph(3)
	must(g.AddEdge(0, 1, 1))
	// Corrupt: make adjacency asymmetric by hand.
	g.adj[2] = append(g.adj[2], Edge{To: 0, Weight: 1})
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed asymmetric edge")
	}
}

// TestRadixQueueOrder drives the queue the way Dijkstra does — every push
// at or above the last popped key, by a gap of up to 2^20, so keys climb
// into the high buckets — and checks each pop against the pending minimum. Distances alone cannot
// catch an out-of-order pop: Dijkstra's stale-entry check turns it into
// extra work, not a wrong answer.
func TestRadixQueueOrder(t *testing.T) {
	r := stats.NewRNG(7)
	var q radixQueue
	for trial := 0; trial < 200; trial++ {
		q.reset()
		var pending []int32
		var last int32
		for step := 0; step < 600; step++ {
			if len(pending) == 0 || (step < 400 && r.Intn(3) > 0) {
				key := last + int32(r.Int63n(int64(1)<<r.Intn(21)))
				q.push(key, int32(step))
				pending = append(pending, key)
				continue
			}
			got, _ := q.pop()
			least := 0
			for j, k := range pending {
				if k < pending[least] {
					least = j
				}
			}
			if got != pending[least] {
				t.Fatalf("trial %d step %d: popped %d, pending minimum is %d", trial, step, got, pending[least])
			}
			pending = append(pending[:least], pending[least+1:]...)
			last = got
		}
		if q.size != len(pending) {
			t.Fatalf("trial %d: queue holds %d items, want %d", trial, q.size, len(pending))
		}
	}
}

// floydWarshall is an independent APSP oracle for cross-checking Dijkstra.
func floydWarshall(g *Graph) [][]int64 {
	n := g.N()
	const inf = int64(1) << 40
	d := make([][]int64, n)
	for i := range d {
		d[i] = make([]int64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = inf
			}
		}
	}
	for u := 0; u < n; u++ {
		for _, e := range g.Neighbors(u) {
			d[u][e.To] = int64(e.Weight)
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return d
}

func TestAllPairsAgainstFloydWarshall(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g, err := Random(40, 0.15, DefaultWeights, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		m := AllPairs(g, 0)
		fw := floydWarshall(g)
		for i := 0; i < g.N(); i++ {
			for j := 0; j < g.N(); j++ {
				want := fw[i][j]
				got := int64(m.At(i, j))
				if want >= int64(1)<<40 {
					if m.At(i, j) != Infinity {
						t.Fatalf("seed %d: (%d,%d) should be unreachable", seed, i, j)
					}
					continue
				}
				if got != want {
					t.Fatalf("seed %d: d(%d,%d) dijkstra %d != floyd-warshall %d", seed, i, j, got, want)
				}
			}
		}
	}
}
