package agtram

import (
	"context"
	"testing"

	"repro/internal/candidates"
	"repro/internal/distoracle"
	"repro/internal/greedy"
	"repro/internal/pool"
	"repro/internal/replication"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// lazyProblem builds a 120-server instance over a CSR-lazy oracle whose
// 16-row cache is far smaller than the server count, so any row a solve
// asks for keeps missing. demandFraction bounds how many servers read each
// object.
func lazyProblem(t *testing.T, demandFraction float64) (*replication.Problem, *distoracle.CSRLazy) {
	t.Helper()
	const servers = 120
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Servers: servers, Objects: 200, Requests: 12000, RWRatio: 0.9, Seed: 3,
		DemandFraction: demandFraction,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(3)
	g, err := topology.Random(servers, 0.05, topology.DefaultWeights, r)
	if err != nil {
		t.Fatal(err)
	}
	caps, err := replication.GenerateCapacities(w, 20, r)
	if err != nil {
		t.Fatal(err)
	}
	oracle := distoracle.NewCSRLazy(g, 16)
	p, err := replication.NewProblem(oracle, w, caps)
	if err != nil {
		t.Fatal(err)
	}
	return p, oracle
}

// priced reports whether NewProblem gave object k a co-demander block: the
// fixed rule d_k² ≤ M.
func priced(p *replication.Problem, k int32) bool {
	d := p.Demanders(k)
	return d*d <= p.M
}

// TestLazyOracleRowTraffic pins how often a solve asks a lazy oracle for a
// distance row. The primary-only schema and both arena builds price from
// the problem's c(i, P_k) table and the schema's NN table, so they leave
// every cache counter alone. A round reads its distances from the placed
// object's co-demander block when the object has one, so a cold solve
// misses at most once per round that places an object without a block, on
// the winner's column.
func TestLazyOracleRowTraffic(t *testing.T) {
	p, oracle := lazyProblem(t, 0)
	pl := pool.New(2)
	defer pl.Close()

	untouched := func(name string, build func()) {
		t.Helper()
		before := oracle.Stats()
		build()
		if after := oracle.Stats(); after != before {
			t.Errorf("%s asked the oracle for rows: cache stats %+v -> %+v", name, before, after)
		}
	}
	untouched("NewSchema", func() { p.NewSchema() })
	untouched("BuildArena", func() { candidates.BuildArena(p, pl) })

	before := oracle.Stats()
	res, err := SolveIncremental(context.Background(), p, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	misses := oracle.Stats().Misses - before.Misses
	unpriced := 0
	for _, a := range res.Allocations {
		if !priced(p, a.Object) {
			unpriced++
		}
	}
	t.Logf("%d rounds, %d on unpriced objects, %d row misses", res.Rounds, unpriced, misses)
	if res.Rounds == 0 || unpriced == res.Rounds {
		t.Fatalf("instance does not exercise priced rounds: %d rounds, %d unpriced", res.Rounds, unpriced)
	}
	if misses > int64(unpriced) {
		t.Errorf("cold solve missed %d rows in %d rounds, %d of them on unpriced objects; want at most one per unpriced round",
			misses, res.Rounds, unpriced)
	}

	untouched("BuildArenaFrom", func() { candidates.BuildArenaFrom(res.Schema, pl) })
}

// TestPricedSolvesFetchNoRows: when every object has a co-demander block,
// every engine plays a cold solve, and greedy solves, without asking the
// lazy oracle for a single row after NewProblem.
func TestPricedSolvesFetchNoRows(t *testing.T) {
	// Each object is read by at most 10 of the 120 servers: 10² ≤ 120.
	p, oracle := lazyProblem(t, 10.0/120)
	for k := int32(0); int(k) < p.N; k++ {
		if !priced(p, k) {
			t.Fatalf("object %d has %d demanders; the instance must price every object", k, p.Demanders(k))
		}
	}
	ctx := context.Background()
	solves := []struct {
		name  string
		solve func() (int, error)
	}{
		{"incremental", func() (int, error) {
			res, err := SolveIncremental(ctx, p, Config{Workers: 2})
			return rounds(res), err
		}},
		{"sync", func() (int, error) {
			res, err := Solve(ctx, p, Config{Workers: 2})
			return rounds(res), err
		}},
		{"distributed", func() (int, error) {
			res, err := SolveDistributed(ctx, p, Config{})
			return rounds(res), err
		}},
		{"greedy", func() (int, error) {
			res, err := greedy.Solve(ctx, p, greedy.DefaultConfig())
			if err != nil {
				return 0, err
			}
			return res.Placed, nil
		}},
	}
	for _, s := range solves {
		before := oracle.Stats()
		placed, err := s.solve()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if placed == 0 {
			t.Fatalf("%s placed nothing", s.name)
		}
		if after := oracle.Stats(); after != before {
			t.Errorf("%s asked the oracle for rows: cache stats %+v -> %+v", s.name, before, after)
		}
	}
}

func rounds(res *Result) int {
	if res == nil {
		return 0
	}
	return res.Rounds
}
