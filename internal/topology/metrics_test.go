package topology

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestClusteringCoefficientKnownGraphs(t *testing.T) {
	// A triangle has coefficient 1.
	tri := NewGraph(3)
	must(tri.AddEdge(0, 1, 1))
	must(tri.AddEdge(1, 2, 1))
	must(tri.AddEdge(0, 2, 1))
	if c := tri.ClusteringCoefficient(); math.Abs(c-1) > 1e-9 {
		t.Fatalf("triangle coefficient = %v, want 1", c)
	}
	// A star has coefficient 0 (no neighbor of the hub is connected).
	if c := Star(5).ClusteringCoefficient(); c != 0 {
		t.Fatalf("star coefficient = %v, want 0", c)
	}
	// A path has no node with two connected neighbors.
	if c := Line(5).ClusteringCoefficient(); c != 0 {
		t.Fatalf("line coefficient = %v, want 0", c)
	}
	// Degenerate graphs.
	if c := NewGraph(0).ClusteringCoefficient(); c != 0 {
		t.Fatalf("empty graph coefficient = %v", c)
	}
}

func TestClusteringCoefficientGNP(t *testing.T) {
	// For G(n,p), the expected coefficient is about p.
	g, err := Random(120, 0.3, DefaultWeights, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if c := g.ClusteringCoefficient(); math.Abs(c-0.3) > 0.05 {
		t.Fatalf("G(n, 0.3) coefficient = %v, want about 0.3", c)
	}
}

func TestAveragePathCost(t *testing.T) {
	m := AllPairs(Line(3), 1) // distances 1,1,2 over pairs (0,1),(1,2),(0,2)
	want := (1.0 + 1.0 + 2.0) / 3
	if got := AveragePathCost(m); math.Abs(got-want) > 1e-9 {
		t.Fatalf("average path cost = %v, want %v", got, want)
	}
	if AveragePathCost(AllPairs(NewGraph(1), 1)) != 0 {
		t.Fatal("single node average should be 0")
	}
	// Disconnected pairs are excluded, not counted as infinite.
	g := NewGraph(3)
	must(g.AddEdge(0, 1, 4))
	if got := AveragePathCost(AllPairs(g, 1)); got != 4 {
		t.Fatalf("disconnected average = %v, want 4", got)
	}
}
