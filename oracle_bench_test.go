// Benchmarks for the pluggable distance-oracle layer: micro-benchmarks of
// oracle build/query costs (BenchmarkDistOracle) and end-to-end solves at
// M=1k/10k comparing dense vs CSR-lazy vs landmark (BenchmarkOracleSolve),
// the numbers behind BENCH_6.json's O(M²) → O(KM) memory trajectory.
//
// The M=10k cases are gated behind BENCH_M10K=1 (set by `make bench-json`)
// so the run-everything CI sweep stays affordable; the solve benchmarks
// report "rss-MiB" (process peak RSS, VmHWM — monotone within a run, which
// is why the dense 10k case runs last) and "live-heap-MiB" (post-GC heap,
// the per-variant signal).
package repro_test

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/distoracle"
	"repro/internal/stats"
	"repro/internal/topology"
)

// peakRSSMiB reads the process high-water RSS (VmHWM) from /proc; 0 on
// platforms without procfs (the metric is simply omitted there).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// liveHeapMiB settles the heap and reports live bytes in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func reportMemory(b *testing.B) {
	b.Helper()
	b.ReportMetric(liveHeapMiB(), "live-heap-MiB")
	if rss := peakRSSMiB(); rss > 0 {
		b.ReportMetric(rss, "rss-MiB")
	}
}

// BenchmarkDistOracle measures each oracle's build and query costs on one
// M=2000 sparse graph (power-law, the Inet family) and, for the tree
// oracle, a random recursive tree of the same size.
func BenchmarkDistOracle(b *testing.B) {
	const m = 2000
	r := stats.NewRNG(1)
	g, err := topology.PowerLaw(m, 2, topology.DefaultWeights, r)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := topology.RandomTree(m, topology.DefaultWeights, r)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-drawn query pairs so the RNG stays out of the timed loop.
	pairs := make([][2]int, 4096)
	for i := range pairs {
		pairs[i] = [2]int{r.Intn(m), r.Intn(m)}
	}

	b.Run("build/dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			topology.AllPairs(g, 0)
		}
	})
	b.Run("build/csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			distoracle.NewCSRLazy(g, 0)
		}
	})
	b.Run("build/landmark", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := distoracle.NewLandmark(g, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("build/tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := distoracle.NewTree(tree); err != nil {
				b.Fatal(err)
			}
		}
	})

	dense := topology.AllPairs(g, 0)
	csr := distoracle.NewCSRLazy(g, 0)
	lm, err := distoracle.NewLandmark(g, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := distoracle.NewTree(tree)
	if err != nil {
		b.Fatal(err)
	}
	atBench := func(at func(i, j int) int32, qs [][2]int) func(*testing.B) {
		return func(b *testing.B) {
			var sink int32
			for i := 0; i < b.N; i++ {
				p := qs[i&(len(qs)-1)]
				sink += at(p[0], p[1])
			}
			_ = sink
		}
	}
	// The warm CSR case queries sources that fit the row cache (the
	// solver's pattern: hot rows are revisited across re-pricing passes);
	// the first touch of each source pays its Dijkstra before the timer.
	hotPairs := make([][2]int, len(pairs))
	for i := range hotPairs {
		hotPairs[i] = [2]int{pairs[i][0] % 128, pairs[i][1]}
		csr.Row(hotPairs[i][0])
	}
	b.Run("at/dense", atBench(dense.At, pairs))
	b.Run("at/csr-warm", atBench(csr.At, hotPairs))
	b.Run("at/landmark", atBench(lm.At, pairs))
	b.Run("at/tree", atBench(tr.At, pairs))

	b.Run("row/dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = dense.Row(i % m)
		}
	})
	b.Run("row/csr-cold", func(b *testing.B) {
		// A fresh tiny cache every lap: every Row is a Dijkstra.
		cold := distoracle.NewCSRLazy(g, 1)
		for i := 0; i < b.N; i++ {
			_ = cold.Row(i % m)
		}
	})
}

// oracleSolveCases are the BENCH_6.json matrix: dense vs CSR-lazy vs
// landmark at M=1k and M=10k on the same sparse topology family, plus
// solve-only cases at M=1k. Order matters: RSS is a process high-water
// mark, so the dense 10k case (whose matrix alone is ~381 MiB) runs last to
// keep the lazy oracles' readings honest.
var oracleSolveCases = []struct {
	name      string
	gated     bool // only with BENCH_M10K=1
	solveOnly bool // build the instance outside the timer
	cfg       repro.InstanceConfig
}{
	{"M1k/dense", false, false, oracleSolveConfig(1000, "dense")},
	{"M1k/csr", false, false, oracleSolveConfig(1000, "csr")},
	{"M1k/landmark", false, false, oracleSolveConfig(1000, "landmark")},
	{"M1k/dense/solve", false, true, oracleSolveConfig(1000, "dense")},
	{"M1k/csr/solve", false, true, oracleSolveConfig(1000, "csr")},
	{"M10k/csr", true, false, oracleSolveConfig(10000, "csr")},
	{"M10k/landmark", true, false, oracleSolveConfig(10000, "landmark")},
	{"M10k/dense", true, false, oracleSolveConfig(10000, "dense")},
}

func oracleSolveConfig(servers int, oracle string) repro.InstanceConfig {
	return repro.InstanceConfig{
		Servers:         servers,
		Objects:         servers + servers/2,
		Requests:        servers * 60,
		RWRatio:         0.9,
		CapacityPercent: 20,
		Topology:        repro.TopologyPowerLaw,
		Oracle:          oracle,
		Landmarks:       64,
		Seed:            42,
	}
}

// BenchmarkOracleSolve times the end-to-end pipeline — instance
// construction (topology, oracle build, workload, capacities) plus one
// incremental AGT-RAM solve — per oracle. Construction stays inside the
// timed loop on purpose: the dense oracle's O(M²) build is exactly the
// cost being eliminated. The solve-only cases time one cold solve of a
// fresh instance built outside the timer: on the lazy oracle the build's M
// Dijkstras dominate the end-to-end case, so per-round row fetches could
// creep back under its gate, but not under these.
func BenchmarkOracleSolve(b *testing.B) {
	for _, c := range oracleSolveCases {
		b.Run(c.name, func(b *testing.B) {
			if c.gated && os.Getenv("BENCH_M10K") == "" {
				b.Skip("M=10k solve benchmarks run with BENCH_M10K=1 (make bench-json)")
			}
			var work int64
			for i := 0; i < b.N; i++ {
				if c.solveOnly {
					b.StopTimer()
				}
				inst, err := repro.NewInstance(c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if c.solveOnly {
					b.StartTimer()
				}
				res, err := inst.Solve(repro.AGTRAM, &repro.Options{Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
				work += res.Work
			}
			b.ReportMetric(float64(work)/float64(b.N), "valuations/op")
			reportMemory(b)
		})
	}
}
