package distoracle

import (
	"testing"

	"repro/internal/topology"
)

// FuzzTreeOracleLCA cross-checks the Euler-tour/LCA tree oracle against
// plain Dijkstra on trees decoded from the fuzz input: byte i (1-based
// node) picks the parent among earlier nodes and an edge weight, so every
// input is a valid weighted recursive tree.
func FuzzTreeOracleLCA(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{255, 0, 128, 7, 7, 7, 0, 0, 0, 9, 200, 13, 77, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data)
		if n == 0 {
			return
		}
		if n > 256 {
			n = 256
			data = data[:n]
		}
		g := topology.NewGraph(n)
		for u := 1; u < n; u++ {
			parent := int(data[u]) % u
			weight := 1 + int32(data[u-1])%9
			if err := g.AddEdge(u, parent, weight); err != nil {
				t.Fatalf("tree construction: %v", err)
			}
		}
		if !IsTree(g) {
			t.Fatalf("decoded graph is not a tree: n=%d edges=%d", g.N(), g.Edges())
		}
		tr, err := NewTree(g)
		if err != nil {
			t.Fatalf("NewTree: %v", err)
		}
		dist := make([]int32, n)
		var sp topology.Dijkstra
		for i := 0; i < n; i++ {
			sp.Run(g, i, dist)
			for j := 0; j < n; j++ {
				if got := tr.At(i, j); got != dist[j] {
					t.Fatalf("tree At(%d,%d) = %d, Dijkstra says %d", i, j, got, dist[j])
				}
			}
		}
	})
}
