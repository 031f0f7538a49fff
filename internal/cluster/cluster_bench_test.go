package cluster

import (
	"context"
	"fmt"
	"net"
	"os"
	"testing"

	_ "repro/internal/agtram" // register the agt-ram solver
	"repro/internal/online"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// benchProblem is the M=1000 instance behind BENCH_9.json: the scale the
// issue's acceptance gate names, big enough that regional games have real
// work to split.
func benchProblem(b *testing.B) *replication.Problem {
	b.Helper()
	p, err := testutil.Build(testutil.InstanceConfig{
		Servers:         1000,
		Objects:         3000,
		Requests:        180000,
		RWRatio:         0.9,
		CapacityPercent: 20,
		EdgeP:           0.05,
		Seed:            42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkClusterSolve compares one full cluster solve — regional games in
// parallel over loopback TCP plus the top-level merge — against the single
// daemon solving the whole instance, at M=1000. The savings-pct metric
// records what sharding costs in placement quality (the boundary-replica
// exchange recovers part of what pure region-local placement forfeits), the
// ns/op column what it buys in wall-clock. The sharded runs additionally
// break the wall-clock into phases from the coordinator's counters:
// partition-ns / ship-ns / assign-bytes for the (one) assignment,
// solve-ns (coordinator-side fan-out), region-solve-ns (slowest shard's
// own solve, RPC overhead excluded), merge-ns and solve-bytes (the solve
// fan-out's wire bytes, sent and received, from the coordinator's client
// counters), each a mean per cluster solve.
//
// In those rows every timed solve after the first re-solves an unchanged
// mirror, so the merge memo answers it. The churn rows (shards=2/churn,
// shards=4/churn) apply one untimed diurnal-wave batch before each timed
// solve, so every timed merge carries the union and runs the boundary
// exchange; they report merge-ns with its carry-ns and exchange-ns
// sub-phases, and savings-pct.
func BenchmarkClusterSolve(b *testing.B) {
	benchClusterSolve(b, benchProblem(b))
}

// BenchmarkClusterSolvePaper runs BenchmarkClusterSolve's rows at the
// paper's size: M=3,718, N=25,000, 1.5M requests, EdgeP 0.0011 (mean
// degree about 4), C=20%, seed 42, on the dense oracle. Like the oracle
// benchmark's M=10k cases behind BENCH_M10K, it stays out of the default
// sweep and runs only with BENCH_PAPER=1 (about 7 s and 250 MiB peak RSS
// on a 2-CPU host), for example
//
//	BENCH_PAPER=1 go test -run '^$' -bench ClusterSolvePaper -benchtime 5x ./internal/cluster
func BenchmarkClusterSolvePaper(b *testing.B) {
	if os.Getenv("BENCH_PAPER") == "" {
		b.Skip("the paper-size cluster benchmark runs with BENCH_PAPER=1")
	}
	p, err := testutil.Build(testutil.InstanceConfig{
		Servers:         3718,
		Objects:         25000,
		Requests:        1500000,
		RWRatio:         0.9,
		CapacityPercent: 20,
		EdgeP:           0.0011,
		Seed:            42,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchClusterSolve(b, p)
}

func benchClusterSolve(b *testing.B, p *replication.Problem) {
	cfg := online.Config{Seed: 42}
	ctx := context.Background()

	b.Run("single", func(b *testing.B) {
		ctrl, err := online.New(p.Cost, p.Work, p.Capacity, cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer ctrl.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ctrl.SolveNow(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(ctrl.Metrics().Savings, "savings-pct")
	})

	for _, shards := range []int{2, 4} {
		// "=" rather than "-" before the count: benchjson strips a trailing
		// "-N" as the GOMAXPROCS tag (which single-proc runs omit), and the
		// shard counts must not collapse into one compare-gate row.
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			co, ids := startBenchCluster(b, p, cfg, shards)
			if err := co.AssignNow(ctx); err != nil {
				b.Fatal(err)
			}
			ph0, bytes0 := co.Phases(), co.wireBytes(ids)
			// RegionSolveNs holds only the latest solve's slowest shard, so it
			// is read after every solve and averaged.
			var regionNs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := co.SolveNow(ctx); err != nil {
					b.Fatal(err)
				}
				regionNs += co.Phases().RegionSolveNs
			}
			b.StopTimer()
			solveBytes := co.wireBytes(ids) - bytes0
			b.ReportMetric(co.Metrics().Savings, "savings-pct")
			ph := co.Phases()
			if ph.Assigns > 0 {
				b.ReportMetric(float64(ph.PartitionNs)/float64(ph.Assigns), "partition-ns")
				b.ReportMetric(float64(ph.ShipNs)/float64(ph.Assigns), "ship-ns")
				b.ReportMetric(float64(ph.AssignBytes)/float64(ph.Assigns), "assign-bytes")
			}
			n := float64(b.N)
			b.ReportMetric(float64(ph.SolveNs-ph0.SolveNs)/n, "solve-ns")
			b.ReportMetric(float64(regionNs)/n, "region-solve-ns")
			b.ReportMetric(float64(ph.MergeNs-ph0.MergeNs)/n, "merge-ns")
			b.ReportMetric(float64(solveBytes)/n, "solve-bytes")
		})
	}

	// The churn rows report none of the units CI's compare gates by name
	// (region-solve-ns, assign-bytes, solve-bytes).
	for _, shards := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards=%d/churn", shards), func(b *testing.B) {
			co, _ := startBenchCluster(b, p, cfg, shards)
			if err := co.AssignNow(ctx); err != nil {
				b.Fatal(err)
			}
			if err := co.SolveNow(ctx); err != nil {
				b.Fatal(err)
			}
			wave := sim.NewDiurnalWave(sim.ShapeOf(p), 1)
			tick := 0
			ph0 := co.Phases()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var batch []online.Delta
				for len(batch) == 0 {
					batch = wave.Batch(tick % wave.Ticks())
					tick++
				}
				if _, err := co.ApplyDeltas(batch); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := co.SolveNow(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ph := co.Phases()
			n := float64(b.N)
			b.ReportMetric(co.Metrics().Savings, "savings-pct")
			b.ReportMetric(float64(ph.MergeNs-ph0.MergeNs)/n, "merge-ns")
			b.ReportMetric(float64(ph.CarryNs-ph0.CarryNs)/n, "carry-ns")
			b.ReportMetric(float64(ph.ExchangeNs-ph0.ExchangeNs)/n, "exchange-ns")
		})
	}
}

// startBenchCluster starts the shards on loopback TCP and a coordinator
// over them; the benchmark's cleanup closes them all. It returns the
// coordinator and the shard ids.
func startBenchCluster(b *testing.B, p *replication.Problem, cfg online.Config, shards int) (*Coordinator, []int) {
	b.Helper()
	var addrs []string
	var ids []int
	for i := 0; i < shards; i++ {
		sh := NewShard(i, p.Cost, ShardConfig{Codec: CodecGob, Controller: cfg})
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		sh.Serve(lis)
		b.Cleanup(sh.Close)
		addrs = append(addrs, sh.Addr())
		ids = append(ids, i)
	}
	co, err := NewCoordinator(p, addrs, CoordinatorConfig{Codec: CodecGob, Controller: cfg})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(co.Close)
	return co, ids
}
