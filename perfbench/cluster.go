package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/online"
	"repro/internal/routing"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
)

const (
	// setupReps is how many times a run forms the deployment; setup_s is
	// the median, which keeps one slow first formation from moving it.
	setupReps = 3
	// clusterShards is one regional game per core of the reference host.
	clusterShards = 2
	// lookupsPerTick is the tick's fixed query block on the routing client.
	lookupsPerTick = 20000
	// routeCheckPairs is the sample of the query block compared against the
	// coordinator's own answers after every tick.
	routeCheckPairs = 256
	// ticksPerSecond is the nominal tick rate on the reference host: one
	// 32-tick scenario cycle in about ten seconds.
	ticksPerSecond = 3.2
)

// churnSchedule lays the four canonical scenarios back to back —
// flash-crowd, diurnal, failures, rolling: 32 ticks a cycle — cycle after
// cycle, each cycle drawn from its own seed, until n ticks. Pure in (shape,
// seed, n): the same seed replays the same batches.
func churnSchedule(shape sim.Shape, seed int64, n int) [][]online.Delta {
	var out [][]online.Delta
	for c := int64(0); len(out) < n; c++ {
		for _, g := range sim.ScenarioMatrix(shape, stats.Mix64(seed, c)) {
			for t := 0; t < g.Ticks() && len(out) < n; t++ {
				out = append(out, g.Batch(t))
			}
		}
	}
	return out
}

// query is one routed lookup.
type query struct {
	server int
	object int32
}

func queryBlock(m, n int, seed int64) []query {
	rng := stats.NewRNG(stats.Mix64(seed, 77))
	qs := make([]query, lookupsPerTick)
	for i := range qs {
		qs[i] = query{server: rng.Intn(m), object: int32(rng.Intn(n))}
	}
	return qs
}

// tracedBackend is the benchmark-side server.Backend around the coordinator.
// It times the coordinator calls the HTTP handlers make and checks that the
// coordinator's own phase counters for a call fit inside the call.
type tracedBackend struct {
	*cluster.Coordinator
	tr *tracer

	mu         sync.Mutex
	op         int
	violations []string
}

func (b *tracedBackend) setOp(op int) {
	b.mu.Lock()
	b.op = op
	b.mu.Unlock()
}

func (b *tracedBackend) wrap(name string, f func() error) error {
	b.mu.Lock()
	op := b.op
	b.mu.Unlock()
	ph0 := b.Phases()
	id := b.tr.begin(name, op)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	b.tr.end(id)
	ph1 := b.Phases()
	inside := (ph1.PartitionNs - ph0.PartitionNs) + (ph1.ShipNs - ph0.ShipNs) +
		(ph1.SolveNs - ph0.SolveNs) + (ph1.MergeNs - ph0.MergeNs)
	if inside > d.Nanoseconds() {
		b.mu.Lock()
		b.violations = append(b.violations, fmt.Sprintf(
			"op %d %s: partition+ship+fan-out+merge %.3f ms exceeds the %.3f ms call", op, name, float64(inside)/1e6, ms(d)))
		b.mu.Unlock()
	}
	return err
}

func (b *tracedBackend) takeViolations() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	v := b.violations
	b.violations = nil
	return v
}

func (b *tracedBackend) ApplyDeltas(ds []online.Delta) (a online.Applied, err error) {
	err = b.wrap("cluster.apply", func() error {
		a, err = b.Coordinator.ApplyDeltas(ds)
		return err
	})
	return a, err
}

func (b *tracedBackend) SolveNow(ctx context.Context) error {
	return b.wrap("cluster.solve", func() error { return b.Coordinator.SolveNow(ctx) })
}

// clusterEnv is one running deployment: shards and coordinator on loopback
// TCP, the coordinator behind the HTTP API, and a routing client following
// GET /epochs. Nothing runs in the background beyond the servers and the
// client's long-poll: no Start, no drift-triggered solves.
type clusterEnv struct {
	inst     *repro.Instance
	shards   []*cluster.Shard
	co       *cluster.Coordinator
	backend  *tracedBackend
	api      *server.Server
	hs       *http.Server
	serveErr chan error
	base     string
	post     *http.Client
	poll     *http.Client
	rc       *routing.Client
	unfollow context.CancelFunc
	followed chan error
}

// solveReply is POST /solve's body.
type solveReply struct {
	Version uint64  `json:"version"`
	Savings float64 `json:"savings_percent"`
}

func startCluster(r *run, cfg repro.InstanceConfig) (env *clusterEnv, err error) {
	env = &clusterEnv{}
	defer func() {
		if err != nil {
			env.close()
			env = nil
		}
	}()
	if _, err = timed(r.tr, "setup.build", -1, func() (err error) {
		env.inst, err = repro.NewInstance(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	if _, err = timed(r.tr, "setup.form", -1, func() error { return env.form(cfg.Seed) }); err != nil {
		return nil, err
	}
	id := r.tr.begin("setup.serve", -1)
	err = env.serve(r)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	var sr solveReply
	if _, err = timed(r.tr, "setup.first_solve", -1, func() error { return env.postJSON("/solve", nil, &sr) }); err != nil {
		return nil, err
	}
	_, err = timed(r.tr, "setup.sync", -1, func() error {
		return env.rc.WaitVersion(context.Background(), sr.Version, 30*time.Second)
	})
	return env, err
}

// form starts the shards on loopback TCP and the coordinator, and ships the
// first assignment.
func (e *clusterEnv) form(seed int64) error {
	p := e.inst.Problem()
	ctrl := online.Config{Seed: seed} // DriftThreshold 0: only requested solves run
	var addrs []string
	for i := 0; i < clusterShards; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		sh := cluster.NewShard(i, p.Cost, cluster.ShardConfig{Codec: cluster.CodecGob, Controller: ctrl})
		sh.Serve(lis)
		e.shards = append(e.shards, sh)
		addrs = append(addrs, sh.Addr())
	}
	var err error
	if e.co, err = cluster.NewCoordinator(p, addrs, cluster.CoordinatorConfig{Codec: cluster.CodecGob, Controller: ctrl}); err != nil {
		return err
	}
	return e.co.AssignNow(context.Background())
}

// serve puts the coordinator behind the HTTP API and starts the routing
// client following its epoch stream.
func (e *clusterEnv) serve(r *run) error {
	var backend server.Backend = e.co
	if r.tr.on {
		e.backend = &tracedBackend{Coordinator: e.co, tr: r.tr, op: -1}
		backend = e.backend
	}
	e.api = server.New(backend)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.base = "http://" + lis.Addr().String()
	e.hs = &http.Server{Handler: e.api}
	e.serveErr = make(chan error, 1)
	go func() { e.serveErr <- e.hs.Serve(lis) }()

	// One keep-alive connection for the POSTs, one for the epoch long-poll.
	e.post = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	e.poll = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	e.rc = routing.NewClient(e.inst.Problem().Cost)
	ctx, cancel := context.WithCancel(context.Background())
	e.unfollow = cancel
	e.followed = make(chan error, 1)
	src := &routing.HTTPSource{Base: e.base, Client: e.poll, Wait: 10 * time.Second}
	go func() { e.followed <- routing.Follow(ctx, e.rc, src) }()
	return nil
}

// postJSON posts body and decodes a 200 response into out.
func (e *clusterEnv) postJSON(path string, body []byte, out any) error {
	resp, err := e.post.Post(e.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// close stops everything startCluster started and waits for it to end.
func (e *clusterEnv) close() {
	if e.unfollow != nil {
		e.unfollow()
		<-e.followed
	}
	if e.hs != nil {
		e.api.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.hs.Shutdown(ctx) // on timeout the Close below still ends every connection
		cancel()
		_ = e.hs.Close()
		<-e.serveErr
	}
	for _, c := range []*http.Client{e.post, e.poll} {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if e.co != nil {
		e.co.Close()
	}
	for _, sh := range e.shards {
		sh.Close()
	}
}

// clusterInstanceSeed fixes the deployment: the M=1000 instance behind
// BENCH_9/10. The run's seed draws the traffic — the delta schedule and the
// query block — not the system it lands on.
const clusterInstanceSeed = 42

func runClusterChurn(r *run) error {
	cfg := denseConfig(clusterInstanceSeed)
	var lb *layerBuild
	if r.tr.on {
		var err error
		if lb, err = traceBuild(r, cfg); err != nil {
			return err
		}
	}

	var env *clusterEnv
	setups := make([]float64, setupReps)
	for i := range setups {
		if env != nil {
			env.close()
			env = nil
		}
		runtime.GC()
		t0 := time.Now()
		id := r.tr.begin("setup", -1)
		var err error
		env, err = startCluster(r, cfg)
		r.tr.end(id)
		if err != nil {
			return err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	defer env.close()
	r.setE2E("setup_s", quantile(setups, 0.5), "s")

	// Prepared inputs: every request body and the query block exist before
	// the first timed tick.
	p := env.inst.Problem()
	n := r.opCount(ticksPerSecond, 8)
	r.ops = n
	// bodies[i] is tick i's POST /deltas body, nil when its batch is empty.
	bodies := make([][]byte, n)
	for i, ds := range churnSchedule(sim.ShapeOf(p), r.seed, n) {
		if len(ds) == 0 {
			continue
		}
		b, err := json.Marshal(ds)
		if err != nil {
			return err
		}
		bodies[i] = b
	}
	queries := queryBlock(p.M, p.N, r.seed)

	var pings []*cluster.Client
	if r.tr.on {
		for _, sh := range env.shards {
			c := cluster.NewClient(sh.Addr(), cluster.CodecGob, cluster.NetDialer())
			defer c.Close()
			pings = append(pings, c)
		}
	}

	ctx := context.Background()
	var (
		deltaLat, solveLat, replaceLat, routeNs, savings []float64
		lagMs, carryMs, pingUs                           []float64
		busy                                             time.Duration
		use                                              opUsage
		ph                                               phaseTotals
		replicas, work                                   float64
		acc                                              int64
	)
	lastVer := env.co.Current().Version
	var prevWork int64
	if r.tr.on {
		prevWork = shardWork(ctx, env.co)
	}
	for op, body := range bodies {
		r.attempted++
		if err := func() error {
			var u0 usage
			var ph0 cluster.PhaseStats
			var before, mid *online.Epoch
			if r.tr.on {
				env.backend.setOp(op)
				u0, ph0, before = readUsage(), env.co.Phases(), env.co.Current()
			}
			opID := r.tr.begin("op.tick", op)
			defer r.tr.end(opID)
			t0 := time.Now()
			if body != nil {
				var a online.Applied
				id := r.tr.begin("http.deltas", op)
				err := env.postJSON("/deltas", body, &a)
				r.tr.end(id)
				if err != nil {
					return err
				}
				deltaLat = append(deltaLat, ms(time.Since(t0)))
				if a.Version <= lastVer {
					return fmt.Errorf("deltas published version %d after %d", a.Version, lastVer)
				}
				lastVer = a.Version
				if r.tr.on {
					mid = env.co.Current()
				}
			}
			ts := time.Now()
			var sr solveReply
			id := r.tr.begin("http.solve", op)
			err := env.postJSON("/solve", nil, &sr)
			r.tr.end(id)
			if err != nil {
				return err
			}
			ack := time.Now()
			solveLat = append(solveLat, ms(ack.Sub(ts)))
			if sr.Version <= lastVer {
				return fmt.Errorf("solve published version %d after %d", sr.Version, lastVer)
			}
			lastVer = sr.Version
			id = r.tr.begin("routing.wait", op)
			err = env.rc.WaitVersion(ctx, sr.Version, 30*time.Second)
			r.tr.end(id)
			if err != nil {
				return err
			}
			synced := time.Now()
			replaceLat = append(replaceLat, ms(synced.Sub(t0)))
			lagMs = append(lagMs, ms(synced.Sub(ack)))
			id = r.tr.begin("routing.lookups", op)
			defer r.tr.end(id)
			for _, q := range queries {
				dst, err := env.rc.Route(q.server, q.object)
				if err != nil {
					return err
				}
				acc += int64(dst)
			}
			done := time.Now()
			r.tr.end(id)
			r.tr.end(opID)
			routeNs = append(routeNs, float64(done.Sub(synced).Nanoseconds())/lookupsPerTick)
			busy += done.Sub(t0)
			savings = append(savings, sr.Savings)

			var violations []error
			if r.tr.on {
				use.add(u0, readUsage())
				ph.add(ph0, env.co.Phases())
				for _, v := range env.backend.takeViolations() {
					violations = append(violations, errors.New(v))
				}
				m := env.co.Metrics()
				replicas += float64(m.Replicas)
				w := shardWork(ctx, env.co)
				work += float64(w - prevWork)
				prevWork = w
				if mid != nil {
					t := time.Now()
					mid.Problem.CarryOver(before.Schema.Matrix())
					carryMs = append(carryMs, ms(time.Since(t)))
				}
				for _, c := range pings {
					t := time.Now()
					if err := c.Call(ctx, cluster.MethodPing, &cluster.PingRequest{}, &cluster.PingReply{}); err != nil {
						return fmt.Errorf("ping %s: %w", c.Addr(), err)
					}
					pingUs = append(pingUs, float64(time.Since(t).Nanoseconds())/1e3)
				}
			}
			return errors.Join(append(violations, checkTick(env, queries[:routeCheckPairs], sr.Version))...)
		}(); err != nil {
			r.fail("tick %d: %v", op, err)
		}
	}
	sink.Add(uint64(acc))
	r.attempted++
	if st := env.co.Status(ctx); st.ForwardErrors != 0 {
		r.fail("coordinator counted %d forward errors", st.ForwardErrors)
	}
	if len(solveLat) == 0 || len(deltaLat) == 0 {
		return errors.New("no tick completed")
	}

	r.setLatency("solve", solveLat)
	r.setLatency("delta", deltaLat)
	r.setLatency("replace", replaceLat)
	r.setE2E("route_ns", mean(routeNs), "ns")
	r.setE2E("ops_per_s", float64(len(solveLat))/busy.Seconds(), "1/s")
	r.setE2E("savings_pct", mean(savings), "%")

	if r.tr.on {
		t := float64(len(solveLat))
		layers := r.tr.layers()
		m := env.co.Metrics()
		r.setLayer("setup.first_solve_ms", layers["setup.first_solve"].MeanMs, "ms")
		r.setLayer("agtram.valuations", work/t, "count")
		r.setLayer("agtram.rounds", 0, "count")
		r.setLayer("agtram.replicas", replicas/t, "count")
		// The shards run the in-process engine, which never evicts an agent;
		// the mirror's own Evictions counts departed servers instead.
		r.setLayer("agtram.evictions", 0, "count")
		r.setLayer("distoracle.row_misses", 0, "count")
		r.setLayer("distoracle.row_hits", 0, "count")
		r.setLayer("cluster.reassigns", float64(ph.d.Assigns)/t, "count")
		r.setLayer("cluster.assign_bytes", float64(ph.d.AssignBytes)/t, "B")
		r.setLayer("online.journal_len", float64(m.JournalLen), "count")
		r.setLayer("online.carried_drops", float64(m.CarriedDrops), "count")
		use.report(r, len(solveLat))

		r.setLayer("server.deltas_ms", layers["http.deltas"].SelfMs, "ms")
		r.setLayer("server.solve_ms", layers["http.solve"].SelfMs, "ms")
		r.setLayer("cluster.apply_ms", layers["cluster.apply"].MeanMs, "ms")
		r.setLayer("hierarchy.partition_ms", float64(ph.d.PartitionNs)/1e6/t, "ms")
		r.setLayer("cluster.ship_ms", float64(ph.d.ShipNs)/1e6/t, "ms")
		r.setLayer("cluster.fanout_ms", float64(ph.d.SolveNs)/1e6/t, "ms")
		r.setLayer("cluster.region_solve_ms", float64(ph.region)/1e6/t, "ms")
		r.setLayer("cluster.fanout_wait_ms", float64(ph.d.SolveNs-ph.region)/1e6/t, "ms")
		r.setLayer("cluster.merge_ms", float64(ph.d.MergeNs)/1e6/t, "ms")
		r.setLayer("rpc.ping_us", mean(pingUs), "us")
		r.setLayer("replication.carry_ms", mean(carryMs), "ms")
		r.setLayer("routing.lag_ms", mean(lagMs), "ms")
		isolatedProbes(r, p, lb.graph)
	}
	return nil
}

// checkTick compares the routing client with the coordinator on a fixed
// sample of pairs at the version the tick's solve published, and validates
// the merged placement's invariants.
func checkTick(env *clusterEnv, sample []query, version uint64) error {
	e := env.co.Current()
	if e.Version != version {
		return fmt.Errorf("mirror at version %d after the solve published %d", e.Version, version)
	}
	for _, q := range sample {
		want, werr := e.Route(q.server, q.object)
		got, gerr := env.rc.Route(q.server, q.object)
		if (werr == nil) != (gerr == nil) || want != got {
			return fmt.Errorf("route(%d,%d): client %d (%v), coordinator %d (%v)", q.server, q.object, got, gerr, want, werr)
		}
	}
	return e.Schema.ValidateInvariants()
}

// shardWork sums the valuations every shard's regional games have run.
func shardWork(ctx context.Context, co *cluster.Coordinator) int64 {
	var w int64
	for _, s := range co.Status(ctx).Shards {
		if s.Metrics != nil {
			w += s.Metrics.SolverWork
		}
	}
	return w
}

// phaseTotals accumulates the coordinator's phase counters over the ticks.
// RegionSolveNs is not cumulative (it is the latest solve's slowest shard),
// so it is summed per tick separately.
type phaseTotals struct {
	d      cluster.PhaseStats
	region int64
}

func (p *phaseTotals) add(a, b cluster.PhaseStats) {
	p.d.Assigns += b.Assigns - a.Assigns
	p.d.PartitionNs += b.PartitionNs - a.PartitionNs
	p.d.ShipNs += b.ShipNs - a.ShipNs
	p.d.AssignBytes += b.AssignBytes - a.AssignBytes
	p.d.SolveNs += b.SolveNs - a.SolveNs
	p.d.MergeNs += b.MergeNs - a.MergeNs
	if b.Solves > a.Solves {
		p.region += b.RegionSolveNs
	}
}
