package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro"
	"repro/internal/candidates"
	"repro/internal/distoracle"
	"repro/internal/pool"
	"repro/internal/replication"
	"repro/internal/stats"
	"repro/internal/topology"
)

// solveSpec is one solve workload: cold AGT-RAM solves through
// repro.Instance.Solve over a fixed pool of instances, one caller, a fixed
// number of solves.
type solveSpec struct {
	cfg  func(seed int64) repro.InstanceConfig
	opts *repro.Options // nil: the default incremental engine
	// pool is the number of instances; instance i is built with seed i+1.
	pool int
	// perSecond is the nominal solve rate on the reference host, minOps the
	// floor that keeps the percentiles meaningful on short runs.
	perSecond float64
	minOps    int
}

// solveRun is what a solve workload hands its cross-checks.
type solveRun struct {
	insts []*repro.Instance
	first []*repro.Result
}

func runSolveDense(r *run) error {
	if _, err := runSolve(r, solveSpec{cfg: denseConfig, pool: 4, perSecond: 100, minOps: 40}); err != nil {
		return err
	}
	if r.tr.on {
		return probeMessagePassing(r)
	}
	return nil
}

func runSolveLazy(r *run) error {
	sr, err := runSolve(r, solveSpec{cfg: lazyConfig, pool: 3, perSecond: 0.9, minOps: 6})
	if err != nil {
		return err
	}
	r.attempted++
	if kind := sr.insts[0].OracleKind(); kind != "csr-lazy" {
		r.fail("solve-lazy: auto oracle is %s, want csr-lazy", kind)
	}
	// The lazy oracle is exact: a dense-oracle solve of the same graph must
	// land on the same placement. Checked once, untimed.
	r.attempted++
	cfg := sr.insts[0].Config()
	cfg.Oracle = "dense"
	dense, err := repro.NewInstance(cfg)
	if err != nil {
		return err
	}
	res, err := dense.Solve(repro.AGTRAM, nil)
	if err != nil {
		return err
	}
	if err := samePlacement(sr.first[0], res, nil); err != nil {
		r.fail("solve-lazy vs dense oracle: %v", err)
	}
	return nil
}

func runMechanismTCP(r *run) error {
	tcp := &repro.Options{TCPAddr: "127.0.0.1:0"}
	sr, err := runSolve(r, solveSpec{cfg: mechanismConfig, opts: tcp, pool: 8, perSecond: 3, minOps: 16})
	if err != nil {
		return err
	}
	// The message-passing game must allocate and pay exactly what the
	// incremental engine does, on every instance. Checked untimed.
	for i, inst := range sr.insts {
		r.attempted++
		ref, err := inst.Solve(repro.AGTRAM, nil)
		if err != nil {
			return err
		}
		if err := samePlacement(ref, sr.first[i], nil); err != nil {
			r.fail("mechanism-tcp instance %d vs incremental engine: %v", i, err)
		}
	}
	if r.tr.on {
		return probeMessagePassing(r)
	}
	return nil
}

// probeMessagePassing times the three message-passing engines — TCP,
// channels and net.Pipe, the code ROADMAP's transport seam would fold
// together — on the first mechanism-tcp instance, after the op loop, and
// checks each allocates and pays exactly what the incremental engine does.
// solve-dense's traced run calls it too, so the engines are measured by a
// workload BENCHMARK.json lists.
func probeMessagePassing(r *run) error {
	inst, err := repro.NewInstance(mechanismConfig(1))
	if err != nil {
		return err
	}
	ref, err := inst.Solve(repro.AGTRAM, nil)
	if err != nil {
		return err
	}
	for _, e := range []struct {
		name string
		opts *repro.Options
	}{
		{"agtram.tcp_solve", &repro.Options{TCPAddr: "127.0.0.1:0"}},
		{"agtram.chan_solve", &repro.Options{Distributed: true}},
		{"agtram.pipe_solve", &repro.Options{Network: true}},
	} {
		r.attempted++
		var res *repro.Result
		d, err := timed(r.tr, e.name, -1, func() (err error) {
			res, err = inst.Solve(repro.AGTRAM, e.opts)
			return err
		})
		if err != nil {
			return err
		}
		r.setLayer(e.name+"_ms", ms(d), "ms")
		if err := samePlacement(ref, res, nil); err != nil {
			r.fail("%s vs incremental engine: %v", e.name, err)
		}
	}
	return nil
}

// solveOrder is the op schedule: every pool instance is solved the same
// number of times, in an order drawn from the seed. The pool is fixed, so
// savings and exact counts do not depend on which instances a seed drew;
// the seed decides the interleaving, and with it the cache and heap state
// each solve starts from.
func solveOrder(pool, n int, seed int64) []int {
	per := (n + pool - 1) / pool
	order := make([]int, 0, per*pool)
	for i := 0; i < per; i++ {
		for k := 0; k < pool; k++ {
			order = append(order, k)
		}
	}
	rng := stats.NewRNG(stats.Mix64(seed, 5))
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	return order
}

func runSolve(r *run, spec solveSpec) (*solveRun, error) {
	sr := &solveRun{insts: make([]*repro.Instance, spec.pool), first: make([]*repro.Result, spec.pool)}
	var lb *layerBuild
	if r.tr.on {
		var err error
		if lb, err = traceBuild(r, spec.cfg(1)); err != nil {
			return nil, err
		}
	}

	// Set-up: build every pool instance and solve it once; setup_s is the
	// median over the pool.
	setups := make([]float64, spec.pool)
	refs := make([][]byte, spec.pool)
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		id := r.tr.begin("setup", -1)
		var inst *repro.Instance
		_, err := timed(r.tr, "setup.build", -1, func() (err error) {
			inst, err = repro.NewInstance(spec.cfg(int64(i + 1)))
			return err
		})
		if err != nil {
			r.tr.end(id)
			return nil, err
		}
		var res *repro.Result
		_, err = timed(r.tr, "setup.first_solve", -1, func() (err error) {
			res, err = inst.Solve(repro.AGTRAM, spec.opts)
			return err
		})
		r.tr.end(id)
		if err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
		sr.insts[i], sr.first[i] = inst, res

		r.attempted++
		if err := validatePlacement(inst, res); err != nil {
			r.fail("instance %d first solve: %v", i, err)
		}
		if refs[i], err = reportBytes(res); err != nil {
			return nil, err
		}
	}
	r.setE2E("setup_s", quantile(setups, 0.5), "s")

	order := solveOrder(spec.pool, r.opCount(spec.perSecond, spec.minOps), r.seed)
	r.ops = len(order)
	// The full placement-report comparison costs about half a dense solve;
	// it runs on each instance's last solve, the cheap checks on every one.
	last := make([]int, spec.pool)
	for op, k := range order {
		last[k] = op
	}
	lat := make([]float64, 0, len(order))
	var busy time.Duration
	var use opUsage
	var misses, hits, evictions int64
	var savings, work, rounds, replicas float64
	for op, k := range order {
		r.attempted++
		inst := sr.insts[k]
		lazy, _ := inst.Problem().Cost.(*distoracle.CSRLazy)
		var u0 usage
		var c0 distoracle.CacheStats
		if r.tr.on {
			u0 = readUsage()
			if lazy != nil {
				c0 = lazy.Stats()
			}
		}
		id := r.tr.begin("op.solve", op)
		t0 := time.Now()
		res, err := inst.Solve(repro.AGTRAM, spec.opts)
		d := time.Since(t0)
		r.tr.end(id)
		if r.tr.on {
			use.add(u0, readUsage())
			if lazy != nil {
				c1 := lazy.Stats()
				misses += c1.Misses - c0.Misses
				hits += c1.Hits - c0.Hits
			}
		}
		if err != nil {
			r.fail("op %d: %v", op, err)
			continue
		}
		lat = append(lat, ms(d))
		busy += d
		savings += res.SavingsPercent
		work += float64(res.Work)
		rounds += float64(res.Rounds)
		replicas += float64(res.Replicas)
		evictions += int64(len(res.Evictions))
		var ref []byte
		if op == last[k] {
			ref = refs[k]
		}
		if err := sameSolve(sr.first[k], res, ref); err != nil {
			r.fail("op %d (instance %d): %v", op, k, err)
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("every solve failed")
	}
	done := float64(len(lat))
	r.setLatency("solve", lat)
	r.setE2E("ops_per_s", done/busy.Seconds(), "1/s")
	r.setE2E("savings_pct", savings/done, "%")

	if r.tr.on {
		r.setLayer("agtram.valuations", work/done, "count")
		r.setLayer("agtram.rounds", rounds/done, "count")
		r.setLayer("agtram.replicas", replicas/done, "count")
		r.setLayer("agtram.evictions", float64(evictions), "count")
		r.setLayer("distoracle.row_misses", float64(misses)/done, "count")
		r.setLayer("distoracle.row_hits", float64(hits)/done, "count")
		for _, name := range []string{"cluster.reassigns", "online.journal_len", "online.carried_drops"} {
			r.setLayer(name, 0, "count")
		}
		r.setLayer("cluster.assign_bytes", 0, "B")
		use.report(r, len(lat))
		r.setLayer("setup.first_solve_ms", r.tr.layers()["setup.first_solve"].MeanMs, "ms")
		isolatedProbes(r, sr.insts[0].Problem(), lb.graph)
	}
	return sr, nil
}

// opUsage sums process counters over the ops of a traced run.
type opUsage struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func (u *opUsage) add(a, b usage) {
	u.cpu += b.cpu - a.cpu
	u.alloc += b.alloc - a.alloc
	u.gcs += b.gcs - a.gcs
}

func (u *opUsage) report(r *run, ops int) {
	n := float64(max(ops, 1))
	r.setLayer("process.cpu_ms", ms(u.cpu)/n, "ms")
	r.setLayer("runtime.alloc_mb", float64(u.alloc)/1e6/n, "MB")
	r.setLayer("runtime.gc_cycles", float64(u.gcs)/n, "count")
}

// isolatedProbes times layer calls outside any op span, after the op loop:
// the arena build on the workload problem, and the lazy oracle's miss and
// hit costs on the workload graph.
func isolatedProbes(r *run, p *replication.Problem, g *topology.Graph) {
	pl := pool.New(runtime.GOMAXPROCS(0))
	defer pl.Close()
	arena := make([]float64, 3)
	for i := range arena {
		d, _ := timed(r.tr, "candidates.arena", -1, func() error {
			candidates.BuildArena(p, pl)
			return nil
		})
		arena[i] = ms(d)
	}
	r.setLayer("candidates.arena_ms", quantile(arena, 0.5), "ms")

	// A one-row cache turns every Row call on a new source into a miss: one
	// full Dijkstra over the graph.
	cold := distoracle.NewCSRLazy(g, 1)
	sources := min(64, g.N())
	id := r.tr.begin("distoracle.miss", -1)
	t0 := time.Now()
	var acc int64
	for s := 0; s < sources; s++ {
		acc += int64(cold.Row(s * g.N() / sources)[0])
	}
	missD := time.Since(t0)
	r.tr.end(id)
	r.setLayer("distoracle.miss_us", float64(missD.Nanoseconds())/1e3/float64(sources), "us")

	warm := distoracle.NewCSRLazy(g, 1)
	warm.Row(0)
	const reps = 64
	id = r.tr.begin("distoracle.hit", -1)
	t0 = time.Now()
	for rep := 0; rep < reps; rep++ {
		for j := 1; j < g.N(); j++ {
			acc += int64(warm.At(0, j))
		}
	}
	hitD := time.Since(t0)
	r.tr.end(id)
	r.setLayer("distoracle.hit_ns", float64(hitD.Nanoseconds())/float64(reps*(g.N()-1)), "ns")
	sink.Add(uint64(acc))
}

// reportBytes is the placement a user would persist: Result.WriteReport.
func reportBytes(res *repro.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := res.WriteReport(&buf); err != nil {
		return nil, fmt.Errorf("write placement report: %w", err)
	}
	return buf.Bytes(), nil
}

// validatePlacement reads the solve's placement report back, rebuilds the
// schema on the instance (every replica feasible), checks the schema's
// invariants, and checks the rebuilt OTC is the one the solve reported.
func validatePlacement(inst *repro.Instance, res *repro.Result) error {
	b, err := reportBytes(res)
	if err != nil {
		return err
	}
	rep, err := replication.ReadPlacement(bytes.NewReader(b))
	if err != nil {
		return err
	}
	s, err := inst.Problem().Restore(rep)
	if err != nil {
		return err
	}
	if err := s.ValidateInvariants(); err != nil {
		return err
	}
	if s.TotalCost() != res.OTC {
		return fmt.Errorf("rebuilt placement OTC %d, solve reported %d", s.TotalCost(), res.OTC)
	}
	return nil
}

// sameSolve checks a repeated cold solve reproduced the first one: work,
// rounds, OTC, replica count and payments always, and — when firstReport is
// non-nil — the placement report byte for byte.
func sameSolve(first, res *repro.Result, firstReport []byte) error {
	if res.Work != first.Work || res.Rounds != first.Rounds {
		return fmt.Errorf("work/rounds %d/%d, first solve %d/%d", res.Work, res.Rounds, first.Work, first.Rounds)
	}
	if firstReport == nil {
		return sameEconomics(first, res)
	}
	return samePlacement(first, res, firstReport)
}

// sameEconomics checks got allocated and paid what want did, with no agent
// evicted: OTC, replica count and payments.
func sameEconomics(want, got *repro.Result) error {
	if got.OTC != want.OTC || got.Replicas != want.Replicas {
		return fmt.Errorf("OTC/replicas %d/%d, want %d/%d", got.OTC, got.Replicas, want.OTC, want.Replicas)
	}
	if !slices.Equal(got.Payments, want.Payments) {
		return fmt.Errorf("payments differ")
	}
	if len(got.Evictions) > 0 {
		return fmt.Errorf("%d agents evicted", len(got.Evictions))
	}
	return nil
}

// samePlacement is sameEconomics plus the placement report byte for byte.
// wantReport is want's report when the caller already holds it.
func samePlacement(want, got *repro.Result, wantReport []byte) error {
	if err := sameEconomics(want, got); err != nil {
		return err
	}
	var err error
	if wantReport == nil {
		if wantReport, err = reportBytes(want); err != nil {
			return err
		}
	}
	gotReport, err := reportBytes(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(gotReport, wantReport) {
		return fmt.Errorf("placement reports differ")
	}
	return nil
}
