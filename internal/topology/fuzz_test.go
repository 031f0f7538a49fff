package topology

import "testing"

// FuzzShortestPaths checks the radix-queue Dijkstra against Floyd–Warshall
// on graphs decoded from the fuzz input: the first byte picks 1–32 nodes
// and every following 5-byte group adds an edge (u, v, 1 + a 24-bit
// weight), skipping self and duplicate edges, so graphs may be
// disconnected and distances reach the queue's high buckets. One Dijkstra
// runs every source, so its buffers are reused across runs too.
func FuzzShortestPaths(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 1, 9, 0, 0, 1, 2, 255, 255, 255, 0, 2, 1, 0, 0})
	f.Add([]byte{31, 0, 5, 0, 0, 1, 7, 9, 3, 200, 0, 12, 30, 255, 255, 255, 4, 4, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%32
		g := NewGraph(n)
		for e := data[1:]; len(e) >= 5; e = e[5:] {
			w := 1 + (int32(e[2]) | int32(e[3])<<8 | int32(e[4])<<16)
			_ = g.AddEdge(int(e[0])%n, int(e[1])%n, w) // self/duplicate edges are skipped
		}
		fw := floydWarshall(g)
		var d Dijkstra
		dist := make([]int32, n)
		for s := 0; s < n; s++ {
			d.Run(g, s, dist)
			for v := 0; v < n; v++ {
				want := fw[s][v]
				if want >= int64(1)<<40 {
					want = int64(Infinity)
				}
				if int64(dist[v]) != want {
					t.Fatalf("d(%d,%d) = %d, Floyd–Warshall says %d", s, v, dist[v], want)
				}
			}
		}
	})
}
