package agtram

import (
	"context"
	"testing"

	"repro/internal/candidates"
	"repro/internal/distoracle"
	"repro/internal/pool"
	"repro/internal/replication"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestLazyOracleRowTraffic pins how often a solve asks a lazy oracle for a
// distance row. The primary-only schema and both arena builds price from
// the problem's c(i, P_k) table and the schema's NN table, so they leave
// every cache counter alone; a cold solve then misses at most once per
// round, on the winner's column.
func TestLazyOracleRowTraffic(t *testing.T) {
	const servers = 120
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Servers: servers, Objects: 200, Requests: 12000, RWRatio: 0.9, Seed: 3,
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
	// A cache far smaller than the server count, so rows keep missing.
	oracle := distoracle.NewCSRLazy(g, 16)
	p, err := replication.NewProblem(oracle, w, caps)
	if err != nil {
		t.Fatal(err)
	}
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
	if res.Rounds == 0 || misses == 0 {
		t.Fatalf("instance does not exercise the round loop's row fetches: %d rounds, %d misses", res.Rounds, misses)
	}
	if misses > int64(res.Rounds) {
		t.Errorf("cold solve missed %d rows in %d rounds; want at most one per round", misses, res.Rounds)
	}

	untouched("BuildArenaFrom", func() { candidates.BuildArenaFrom(res.Schema, pl) })
}
