package agtram

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/candidates"
	"repro/internal/mechanism"
	"repro/internal/pool"
	"repro/internal/testutil"
)

// forceParallelArena raises GOMAXPROCS so the arena build's fan-out runs on
// concurrent workers even on single-core test machines. Restores it on
// cleanup.
func forceParallelArena(t *testing.T) {
	t.Helper()
	prevProcs := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prevProcs) })
}

// workerSweep is the Config.Workers range the parallel differential tests
// cover. Workers sizes only the arena build's fan-out, so no Result field
// may depend on it.
var workerSweep = []int{1, 2, 4, 8}

// differentialInstance is TestDifferentialEngines' instance family.
func differentialInstance(seed int64) testutil.InstanceConfig {
	return testutil.InstanceConfig{
		Servers:         10 + int(seed%5)*4,
		Objects:         40 + int(seed%3)*30,
		Requests:        3000 + int(seed)*500,
		RWRatio:         0.75 + float64(seed%4)*0.05,
		CapacityPercent: 20 + float64(seed%3)*10,
		EdgeP:           0.35,
		Seed:            seed,
	}
}

// assertSameValuations extends assertIdenticalRuns to the one counter it
// leaves out, for runs of the same engine that differ only in Workers.
func assertSameValuations(t *testing.T, seed int64, workers int, ref, got *Result) {
	t.Helper()
	if got.Valuations != ref.Valuations {
		t.Fatalf("seed %d workers %d: valuations %d, want %d (workers %d)",
			seed, workers, got.Valuations, ref.Valuations, workerSweep[0])
	}
}

// TestDifferentialEnginesParallel is the worker-sweep half of
// TestDifferentialEngines: for every seed and every worker count the
// incremental engine must reproduce the synchronous engine's allocations,
// payments, round count, and final OTC bit for bit, and report the same
// Valuations as at one worker. Run under -race this doubles as the
// data-race proof of the arena build's fan-out.
func TestDifferentialEnginesParallel(t *testing.T) {
	forceParallelArena(t)
	for seed := int64(0); seed < 20; seed++ {
		cfg := differentialInstance(seed)
		sync, err := Solve(context.Background(), testutil.MustBuild(cfg), Config{})
		if err != nil {
			t.Fatalf("seed %d: sync: %v", seed, err)
		}
		var ref *Result
		for _, workers := range workerSweep {
			inc, err := SolveIncremental(context.Background(), testutil.MustBuild(cfg), Config{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			assertIdenticalRuns(t, seed, sync, inc)
			if err := inc.Schema.ValidateInvariants(); err != nil {
				t.Fatalf("seed %d workers %d: invariants: %v", seed, workers, err)
			}
			if ref == nil {
				ref = inc
			}
			assertSameValuations(t, seed, workers, ref, inc)
		}
	}
}

// TestDifferentialEnginesWarmParallel is the warm-path twin of
// TestDifferentialEnginesParallel: from a partial placement, every worker
// count of SolveIncrementalFrom (whose arena build fans out over the
// schema's NN tables) gives the same allocations, payments, OTC and
// Valuations.
func TestDifferentialEnginesWarmParallel(t *testing.T) {
	forceParallelArena(t)
	for seed := int64(0); seed < 20; seed++ {
		p := testutil.MustBuild(differentialInstance(seed))
		base, err := SolveIncremental(context.Background(), p, Config{MaxRounds: 10})
		if err != nil {
			t.Fatal(err)
		}
		var ref *Result
		for _, workers := range workerSweep {
			warm, err := SolveIncrementalFrom(context.Background(), base.Schema, Config{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if err := warm.Schema.ValidateInvariants(); err != nil {
				t.Fatalf("seed %d workers %d: invariants: %v", seed, workers, err)
			}
			if ref == nil {
				ref = warm
			}
			assertIdenticalRuns(t, seed, ref, warm)
			assertSameValuations(t, seed, workers, ref, warm)
		}
	}
}

// TestKernelZeroAllocRounds is the flat-arena claim, enforced: once the
// arena and kernel are built, a steady-state round — settle, award,
// broadcast — performs zero heap allocations.
func TestKernelZeroAllocRounds(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	p := testutil.MustBuild(testutil.Medium(7))
	for _, workers := range []int{1, 4} {
		pl := pool.New(1) // inline arena build
		ar := candidates.BuildArena(p, pl)
		k := newKernel(p, ar, mechanism.SecondPrice)
		var valuations int64
		// Warm up one round, then measure several: every steady-state round
		// must stay out of the allocator entirely.
		round := func() {
			winner, _, _, ok := k.settle(&valuations)
			if !ok {
				t.Fatalf("workers %d: auction ended before the measured rounds", workers)
			}
			obj := k.bidObj[winner]
			k.award(winner)
			k.broadcast(obj, winner)
		}
		round()
		if avg := testing.AllocsPerRun(20, round); avg != 0 {
			t.Fatalf("workers %d: %v allocs per steady-state round, want 0", workers, avg)
		}
		pl.Close()
	}
}
