package topology

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
)

// WeightRange is the closed range of integer link costs used by the
// generators. The paper reverse-maps node distances to the cost of
// transmitting 1 kB; we draw integer costs uniformly from this range.
type WeightRange struct {
	Lo, Hi int32
}

// DefaultWeights matches the flavor of the paper's setup: small positive
// integer per-link costs with meaningful spread.
var DefaultWeights = WeightRange{Lo: 1, Hi: 10}

func (w WeightRange) sample(r *stats.RNG) int32 {
	if w.Lo <= 0 || w.Hi < w.Lo {
		panic(fmt.Sprintf("topology: invalid weight range [%d,%d]", w.Lo, w.Hi))
	}
	return w.Lo + int32(r.Int63n(int64(w.Hi-w.Lo+1)))
}

// Random generates the paper's "pure random topology": a G(n, p) graph in
// which every possible edge is present independently with probability p,
// with uniform integer link costs. The result is patched to be connected
// (isolated components are stitched with random edges), mirroring how
// GT-ITM-generated instances are used in practice.
func Random(n int, p float64, w WeightRange, r *stats.RNG) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: Random needs n > 0, got %d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("topology: Random needs p in [0,1], got %v", p)
	}
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				if err := g.AddEdge(u, v, w.sample(r)); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := ensureConnected(g, w, r); err != nil {
		return nil, err
	}
	return g, nil
}

// Waxman generates a Waxman random graph: nodes are placed uniformly in the
// unit square and the probability of a link between u and v is
// alpha * exp(-d(u,v) / (beta * L)) with L the maximum possible distance.
// Link cost is the Euclidean distance scaled into the weight range, so that
// geography shapes communication cost as in wide-area topologies.
func Waxman(n int, alpha, beta float64, w WeightRange, r *stats.RNG) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: Waxman needs n > 0, got %d", n)
	}
	if alpha <= 0 || alpha > 1 || beta <= 0 || beta > 1 {
		return nil, fmt.Errorf("topology: Waxman needs alpha, beta in (0,1], got alpha=%v beta=%v", alpha, beta)
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i], ys[i] = r.Float64(), r.Float64()
	}
	maxD := math.Sqrt2
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			d := math.Hypot(xs[u]-xs[v], ys[u]-ys[v])
			if r.Float64() < alpha*math.Exp(-d/(beta*maxD)) {
				cost := w.Lo + int32(d/maxD*float64(w.Hi-w.Lo))
				if err := g.AddEdge(u, v, cost); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := ensureConnected(g, w, r); err != nil {
		return nil, err
	}
	return g, nil
}

// PowerLaw generates a preferential-attachment (Barabási–Albert) graph whose
// degree distribution follows a power law, the family the Inet generator
// produces for AS-level Internet topologies. Each new node attaches to m
// existing nodes chosen proportionally to their current degree.
func PowerLaw(n, m int, w WeightRange, r *stats.RNG) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: PowerLaw needs n > 0, got %d", n)
	}
	if m <= 0 {
		return nil, fmt.Errorf("topology: PowerLaw needs m > 0, got %d", m)
	}
	if m >= n {
		m = n - 1
	}
	g := NewGraph(n)
	if n == 1 {
		return g, nil
	}
	// Seed clique of m+1 nodes.
	seed := m + 1
	for u := 0; u < seed; u++ {
		for v := u + 1; v < seed; v++ {
			if err := g.AddEdge(u, v, w.sample(r)); err != nil {
				return nil, err
			}
		}
	}
	// Repeated-endpoint list implements degree-proportional sampling.
	var targets []int32
	for u := 0; u < seed; u++ {
		for range g.adj[u] {
			targets = append(targets, int32(u))
		}
	}
	chosen := make([]int32, 0, m)
	for u := seed; u < n; u++ {
		// Distinct targets in draw order, so the edge order and the weight
		// draws below repeat for the same seed.
		chosen = chosen[:0]
		for len(chosen) < m {
			if t := targets[r.Intn(len(targets))]; !slices.Contains(chosen, t) {
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			if err := g.AddEdge(u, int(t), w.sample(r)); err != nil {
				return nil, err
			}
			targets = append(targets, t, int32(u))
		}
	}
	return g, nil
}

// RandomTree generates a random recursive tree with weighted edges: node u
// (u >= 1) attaches to a uniformly random earlier node. Trees are the
// topology family for which the exact O(1)-query LCA distance oracle in
// internal/distoracle applies, following the tree-network replica placement
// line of work; this generator makes those scenarios reproducible.
func RandomTree(n int, w WeightRange, r *stats.RNG) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: RandomTree needs n > 0, got %d", n)
	}
	g := NewGraph(n)
	for u := 1; u < n; u++ {
		parent := r.Intn(u)
		if err := g.AddEdge(u, parent, w.sample(r)); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// TransitStubConfig parameterizes the GT-ITM-style hierarchical generator.
type TransitStubConfig struct {
	TransitDomains  int // number of transit domains
	TransitSize     int // nodes per transit domain
	StubsPerTransit int // stub domains attached to each transit node
	StubSize        int // nodes per stub domain
	IntraP          float64
	Weights         WeightRange
	// TransitCostFactor scales link costs on the transit backbone relative
	// to stub links (backbone hops are long-haul and expensive).
	TransitCostFactor int32
}

// TransitStub generates a two-level transit-stub topology in the style of
// GT-ITM: dense transit (backbone) domains interconnected in a ring, with
// stub domains hanging off transit nodes. Total node count is
// TransitDomains*TransitSize*(1 + StubsPerTransit*StubSize).
func TransitStub(cfg TransitStubConfig, r *stats.RNG) (*Graph, error) {
	if cfg.TransitDomains <= 0 || cfg.TransitSize <= 0 || cfg.StubsPerTransit < 0 || cfg.StubSize <= 0 {
		return nil, fmt.Errorf("topology: invalid transit-stub config %+v", cfg)
	}
	if cfg.IntraP <= 0 || cfg.IntraP > 1 {
		return nil, fmt.Errorf("topology: transit-stub IntraP must be in (0,1], got %v", cfg.IntraP)
	}
	w := cfg.Weights
	if w.Lo == 0 && w.Hi == 0 {
		w = DefaultWeights
	}
	tf := cfg.TransitCostFactor
	if tf <= 0 {
		tf = 4
	}
	transitNodes := cfg.TransitDomains * cfg.TransitSize
	n := transitNodes * (1 + cfg.StubsPerTransit*cfg.StubSize)
	g := NewGraph(n)

	addDomain := func(nodes []int, weights WeightRange) error {
		// Random intra-domain graph over the node set, made connected by a
		// random spanning chain first.
		perm := r.Perm(len(nodes))
		for i := 1; i < len(perm); i++ {
			if err := g.AddEdge(nodes[perm[i-1]], nodes[perm[i]], weights.sample(r)); err != nil {
				return err
			}
		}
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				if g.HasEdge(nodes[i], nodes[j]) {
					continue
				}
				if r.Float64() < cfg.IntraP {
					if err := g.AddEdge(nodes[i], nodes[j], weights.sample(r)); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}

	transitW := WeightRange{Lo: w.Lo * tf, Hi: w.Hi * tf}
	next := 0
	transit := make([][]int, cfg.TransitDomains)
	for d := 0; d < cfg.TransitDomains; d++ {
		nodes := make([]int, cfg.TransitSize)
		for i := range nodes {
			nodes[i] = next
			next++
		}
		transit[d] = nodes
		if err := addDomain(nodes, transitW); err != nil {
			return nil, err
		}
	}
	// Ring between transit domains via random gateway nodes.
	for d := 0; d < cfg.TransitDomains && cfg.TransitDomains > 1; d++ {
		a := transit[d][r.Intn(cfg.TransitSize)]
		b := transit[(d+1)%cfg.TransitDomains][r.Intn(cfg.TransitSize)]
		if !g.HasEdge(a, b) {
			if err := g.AddEdge(a, b, transitW.sample(r)); err != nil {
				return nil, err
			}
		}
	}
	// Stub domains.
	for d := 0; d < cfg.TransitDomains; d++ {
		for _, tn := range transit[d] {
			for s := 0; s < cfg.StubsPerTransit; s++ {
				nodes := make([]int, cfg.StubSize)
				for i := range nodes {
					nodes[i] = next
					next++
				}
				if err := addDomain(nodes, w); err != nil {
					return nil, err
				}
				// Uplink from a random stub node to its transit node.
				if err := g.AddEdge(nodes[r.Intn(len(nodes))], tn, w.sample(r)); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// Ring returns an n-cycle with unit weights: a deterministic fixture whose
// shortest paths are known in closed form.
func Ring(n int) *Graph {
	g := NewGraph(n)
	for u := 0; u+1 < n; u++ {
		must(g.AddEdge(u, u+1, 1))
	}
	if n > 2 {
		must(g.AddEdge(n-1, 0, 1))
	}
	return g
}

// Grid returns a rows x cols grid with unit weights.
func Grid(rows, cols int) *Graph {
	g := NewGraph(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				must(g.AddEdge(id(r, c), id(r, c+1), 1))
			}
			if r+1 < rows {
				must(g.AddEdge(id(r, c), id(r+1, c), 1))
			}
		}
	}
	return g
}

// Star returns a star with n leaves around hub node 0 and unit weights.
func Star(n int) *Graph {
	g := NewGraph(n + 1)
	for u := 1; u <= n; u++ {
		must(g.AddEdge(0, u, 1))
	}
	return g
}

// Line returns an n-node path graph with unit weights.
func Line(n int) *Graph {
	g := NewGraph(n)
	for u := 0; u+1 < n; u++ {
		must(g.AddEdge(u, u+1, 1))
	}
	return g
}

// ensureConnected stitches disconnected components together with random
// edges so that every c(i,j) is finite, as the DRP requires. The stitch
// edge joins two distinct components, but a sampled weight can still be
// rejected by the graph, so the error is propagated rather than panicked.
func ensureConnected(g *Graph, w WeightRange, r *stats.RNG) error {
	comps := g.Components()
	for len(comps) > 1 {
		a := comps[0][r.Intn(len(comps[0]))]
		b := comps[1][r.Intn(len(comps[1]))]
		if err := g.AddEdge(a, b, w.sample(r)); err != nil {
			return fmt.Errorf("topology: stitching components: %w", err)
		}
		merged := append(comps[0], comps[1]...)
		comps = append([][]int{merged}, comps[2:]...)
	}
	return nil
}

// must panics on error. Reserved for the literal constructors (Ring, Grid,
// Star, Line) whose edges are provably valid by construction; generator
// code paths with data-dependent failure modes return errors instead.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
