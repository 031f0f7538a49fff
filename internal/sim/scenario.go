package sim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/online"
	"repro/internal/replication"
	"repro/internal/routing"
	"repro/internal/stats"
)

// Generator is one workload scenario: a deterministic schedule of delta
// batches the online controller ingests tick by tick. Generators are pure —
// all randomness is fixed at construction from the seed, and Batch(t) for
// the same t always returns the same deltas — so a scenario replays
// bit-identically across runs, methods and processes.
type Generator interface {
	// Name identifies the scenario ("flash-crowd", "diurnal", ...).
	Name() string
	// Ticks is the schedule length; Batch accepts t in [0, Ticks).
	Ticks() int
	// Batch returns tick t's delta batch (possibly empty).
	Batch(t int) []online.Delta
}

// Shape describes the system a scenario is generated against. It must match
// the controller the batches are fed to: server and object ids are drawn
// from these ranges, and topology scenarios rejoin departed servers with
// their Capacity entry.
type Shape struct {
	// Servers and Objects bound the id ranges deltas reference.
	Servers int
	Objects int
	// Capacity is the per-server storage a rejoining server declares
	// (server-join needs one). Nil means rejoin with zero declared capacity
	// — the controller then clamps to the primary load, so set it (or use
	// ShapeOf) for meaningful topology scenarios.
	Capacity []int64
	// Reads is the demand quantum one scenario tick moves per touched
	// (server, object) cell; default 50.
	Reads int64
}

func (s Shape) withDefaults() Shape {
	if s.Reads <= 0 {
		s.Reads = 50
	}
	return s
}

// ShapeOf derives the scenario shape of a live instance.
func ShapeOf(p *replication.Problem) Shape {
	return Shape{
		Servers:  p.M,
		Objects:  p.N,
		Capacity: append([]int64(nil), p.Capacity...),
	}
}

func (s Shape) rejoinCapacity(server int) int64 {
	if server < len(s.Capacity) {
		return s.Capacity[server]
	}
	return 0
}

// scenario is the shared Generator implementation: every constructor
// precomputes its full batch schedule, which is what makes Batch pure.
type scenario struct {
	name    string
	batches [][]online.Delta
}

func (s *scenario) Name() string { return s.name }
func (s *scenario) Ticks() int   { return len(s.batches) }
func (s *scenario) Batch(t int) []online.Delta {
	if t < 0 || t >= len(s.batches) {
		return nil
	}
	return s.batches[t]
}

// pickDistinct draws n distinct values from [0, limit) deterministically.
func pickDistinct(rng *stats.RNG, n, limit int) []int {
	if n > limit {
		n = limit
	}
	perm := rng.Perm32(limit)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = int(perm[i])
	}
	sort.Ints(out)
	return out
}

// demandBatch builds one sorted demand batch over the (server, object)
// cross product with the given signed read adjustment.
func demandBatch(servers []int, objects []int, reads int64) []online.Delta {
	ds := make([]online.Delta, 0, len(servers)*len(objects))
	for _, s := range servers {
		for _, o := range objects {
			ds = append(ds, online.Delta{
				Kind: online.KindDemand, Server: s, Object: int32(o), Reads: reads,
			})
		}
	}
	return ds
}

// NewFlashCrowd models a flash crowd: a small set of hot objects draws a
// read surge from a crowd of servers for four ticks, then the surge decays
// back over four more — net zero demand, but the placement must chase the
// spike there and back.
func NewFlashCrowd(shape Shape, seed int64) Generator {
	shape = shape.withDefaults()
	rng := stats.NewRNG(stats.Mix64(seed, 0x11))
	hot := pickDistinct(rng, max(1, shape.Objects/15), shape.Objects)
	crowd := pickDistinct(rng, max(2, shape.Servers/3), shape.Servers)
	const surge, decay = 4, 4
	batches := make([][]online.Delta, 0, surge+decay)
	for t := 0; t < surge; t++ {
		batches = append(batches, demandBatch(crowd, hot, shape.Reads))
	}
	for t := 0; t < decay; t++ {
		batches = append(batches, demandBatch(crowd, hot, -shape.Reads))
	}
	return &scenario{name: "flash-crowd", batches: batches}
}

// NewDiurnalWave models a diurnal demand wave: a cohort of (server, object)
// cells follows one full raised-cosine day in twelve ticks, so cumulative
// added demand stays in [0, amplitude] and returns to zero at the end.
func NewDiurnalWave(shape Shape, seed int64) Generator {
	shape = shape.withDefaults()
	rng := stats.NewRNG(stats.Mix64(seed, 0x22))
	cells := max(4, min(64, shape.Servers*shape.Objects/50))
	srv := make([]int, cells)
	obj := make([]int, cells)
	for i := range srv {
		srv[i] = rng.Intn(shape.Servers)
		obj[i] = rng.Intn(shape.Objects)
	}
	const ticks = 12
	amplitude := float64(shape.Reads * 4)
	level := func(t int) int64 {
		return int64(math.Round(amplitude * (1 - math.Cos(2*math.Pi*float64(t)/ticks)) / 2))
	}
	batches := make([][]online.Delta, 0, ticks)
	for t := 1; t <= ticks; t++ {
		step := level(t) - level(t-1)
		if step == 0 {
			batches = append(batches, nil)
			continue
		}
		ds := make([]online.Delta, 0, cells)
		for i := range srv {
			ds = append(ds, online.Delta{
				Kind: online.KindDemand, Server: srv[i], Object: int32(obj[i]), Reads: step,
			})
		}
		sortDeltas(ds)
		batches = append(batches, ds)
	}
	return &scenario{name: "diurnal", batches: batches}
}

// NewCorrelatedFailures models a correlated outage: background demand churn,
// then a whole server group fails at once (rack or zone loss), survivors
// absorb extra reads, and the group rejoins with its original capacities.
func NewCorrelatedFailures(shape Shape, seed int64) Generator {
	shape = shape.withDefaults()
	rng := stats.NewRNG(stats.Mix64(seed, 0x33))
	group := pickDistinct(rng, max(1, shape.Servers/4), shape.Servers)
	down := make(map[int]bool, len(group))
	for _, s := range group {
		down[s] = true
	}
	var survivors []int
	for s := 0; s < shape.Servers; s++ {
		if !down[s] {
			survivors = append(survivors, s)
		}
	}
	someObjects := pickDistinct(rng, max(1, shape.Objects/10), shape.Objects)

	leave := make([]online.Delta, 0, len(group))
	rejoin := make([]online.Delta, 0, len(group))
	for _, s := range group {
		leave = append(leave, online.Delta{Kind: online.KindServerLeave, Server: s})
		rejoin = append(rejoin, online.Delta{
			Kind: online.KindServerJoin, Server: s, Capacity: shape.rejoinCapacity(s),
		})
	}
	churnSrv := pickDistinct(rng, max(1, len(survivors)/2), len(survivors))
	for i, idx := range churnSrv {
		churnSrv[i] = survivors[idx]
	}
	batches := [][]online.Delta{
		demandBatch(churnSrv, someObjects, shape.Reads), // background load builds
		leave, // the group fails together
		demandBatch(churnSrv, someObjects, shape.Reads), // survivors absorb more
		rejoin, // the group comes back
		demandBatch(churnSrv, someObjects, -shape.Reads), // load relaxes
	}
	return &scenario{name: "failures", batches: batches}
}

// NewRollingTopology models a rolling restart: one server of a window is
// down at any time — each tick the downed server rejoins (original
// capacity) and the next one leaves — with light demand churn on the
// servers that stay up throughout.
func NewRollingTopology(shape Shape, seed int64) Generator {
	shape = shape.withDefaults()
	rng := stats.NewRNG(stats.Mix64(seed, 0x44))
	window := pickDistinct(rng, max(2, min(6, shape.Servers/5)), shape.Servers)
	inWindow := make(map[int]bool, len(window))
	for _, s := range window {
		inWindow[s] = true
	}
	var steady []int
	for s := 0; s < shape.Servers; s++ {
		if !inWindow[s] {
			steady = append(steady, s)
		}
	}
	churnSrv := pickDistinct(rng, max(1, len(steady)/3), len(steady))
	for i, idx := range churnSrv {
		churnSrv[i] = steady[idx]
	}
	churnObj := pickDistinct(rng, max(1, shape.Objects/20), shape.Objects)

	batches := make([][]online.Delta, 0, len(window)+1)
	for i, s := range window {
		var ds []online.Delta
		if i > 0 {
			prev := window[i-1]
			ds = append(ds, online.Delta{
				Kind: online.KindServerJoin, Server: prev, Capacity: shape.rejoinCapacity(prev),
			})
		}
		ds = append(ds, online.Delta{Kind: online.KindServerLeave, Server: s})
		reads := shape.Reads
		if i%2 == 1 {
			reads = -shape.Reads
		}
		ds = append(ds, demandBatch(churnSrv, churnObj, reads)...)
		batches = append(batches, ds)
	}
	last := window[len(window)-1]
	batches = append(batches, []online.Delta{{
		Kind: online.KindServerJoin, Server: last, Capacity: shape.rejoinCapacity(last),
	}})
	return &scenario{name: "rolling", batches: batches}
}

// Compose concatenates generators tick-wise under one name: Batch(t) is the
// concatenation of every component's Batch(t), Ticks the maximum. Components
// must not contend for the same servers (two generators leaving one server
// in the same tick is an invalid batch); the canonical generators each draw
// from their own seeded stream, so compose groups you know are disjoint.
func Compose(name string, gens ...Generator) Generator {
	ticks := 0
	for _, g := range gens {
		if g.Ticks() > ticks {
			ticks = g.Ticks()
		}
	}
	batches := make([][]online.Delta, ticks)
	for t := 0; t < ticks; t++ {
		for _, g := range gens {
			batches[t] = append(batches[t], g.Batch(t)...)
		}
	}
	return &scenario{name: name, batches: batches}
}

// ScenarioNames lists the canonical scenario classes NewScenario accepts.
func ScenarioNames() []string {
	return []string{"flash-crowd", "diurnal", "failures", "rolling"}
}

// NewScenario builds one canonical scenario by name (the -scenario flag's
// vocabulary).
func NewScenario(name string, shape Shape, seed int64) (Generator, error) {
	switch name {
	case "flash-crowd":
		return NewFlashCrowd(shape, seed), nil
	case "diurnal":
		return NewDiurnalWave(shape, seed), nil
	case "failures":
		return NewCorrelatedFailures(shape, seed), nil
	case "rolling":
		return NewRollingTopology(shape, seed), nil
	default:
		return nil, fmt.Errorf("sim: unknown scenario %q (have %v)", name, ScenarioNames())
	}
}

// ScenarioMatrix builds the four canonical scenario classes over one shape:
// the adversarial workloads every method is benchmarked across.
func ScenarioMatrix(shape Shape, seed int64) []Generator {
	return []Generator{
		NewFlashCrowd(shape, seed),
		NewDiurnalWave(shape, seed),
		NewCorrelatedFailures(shape, seed),
		NewRollingTopology(shape, seed),
	}
}

// ScenarioResult summarizes one scenario run against a controller.
type ScenarioResult struct {
	// Scenario is the generator's name; Ticks the schedule length.
	Scenario string
	Ticks    int
	// Batches counts non-empty delta batches applied; Deltas the deltas
	// across them.
	Batches int
	Deltas  int
	// Solves and SolverWork count the controller's solver runs and their
	// cumulative dominant-operation work (valuations, evaluations, ...).
	Solves     int64
	SolverWork int64
	// CarriedDrops counts replicas evicted during epoch carry-over — the
	// churn cost of topology scenarios.
	CarriedDrops int64
	// FinalOTC and FinalSavings describe the placement the controller ended
	// on after the scenario's last tick and solve.
	FinalOTC     int64
	FinalSavings float64
	// Clients and ClientChecks mirror OnlineReplay: routing clients that
	// followed the epoch stream through the churn, and the bit-identical
	// route verifications against the final epoch.
	Clients      int
	ClientChecks int
}

// RunScenario feeds the generator's schedule through the controller tick by
// tick — the daemon's POST /deltas path under an adversarial workload.
// solvePerTick re-solves after every non-empty batch; otherwise the
// controller solves once after the last tick. clients > 0 runs that many
// routing clients following the epoch stream while the churn lands, then
// verifies every (server, object) route bit-identical to the controller —
// the scenario engine doubling as a load generator for the epoch plane.
func RunScenario(ctx context.Context, ctrl *online.Controller, gen Generator, solvePerTick bool, clients int) (*ScenarioResult, error) {
	f := startFollowers(ctx, ctrl, clients)
	defer f.stop()

	out := &ScenarioResult{Scenario: gen.Name(), Ticks: gen.Ticks(), Clients: clients}
	for t := 0; t < gen.Ticks(); t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: scenario %s: %w", gen.Name(), err)
		}
		ds := gen.Batch(t)
		if len(ds) == 0 {
			continue
		}
		if _, err := ctrl.ApplyDeltas(ds); err != nil {
			return nil, fmt.Errorf("sim: scenario %s tick %d: %w", gen.Name(), t, err)
		}
		out.Batches++
		out.Deltas += len(ds)
		if solvePerTick {
			if err := ctrl.SolveNow(ctx); err != nil {
				return nil, fmt.Errorf("sim: scenario %s tick %d solve: %w", gen.Name(), t, err)
			}
		}
	}
	if !solvePerTick {
		if err := ctrl.SolveNow(ctx); err != nil {
			return nil, fmt.Errorf("sim: scenario %s final solve: %w", gen.Name(), err)
		}
	}
	v := ctrl.Current()
	checks, err := f.converge(ctx, ctrl, v)
	out.ClientChecks = checks
	if err != nil {
		return nil, err
	}
	m := ctrl.Metrics()
	out.Solves = m.SolvesRun
	out.SolverWork = m.SolverWork
	out.CarriedDrops = m.CarriedDrops
	out.FinalOTC = v.Schema.TotalCost()
	out.FinalSavings = v.Schema.Savings()
	return out, nil
}

func sortDeltas(ds []online.Delta) {
	sort.Slice(ds, func(a, b int) bool {
		if ds[a].Server != ds[b].Server {
			return ds[a].Server < ds[b].Server
		}
		return ds[a].Object < ds[b].Object
	})
}

// followers is the shared client-side of the epoch stream: n routing
// clients following the controller while a replay or scenario churns it.
type followers struct {
	ctrl *online.Controller
	cs   []*routing.Client
	done chan error
	halt context.CancelFunc
}

func startFollowers(ctx context.Context, ctrl *online.Controller, n int) *followers {
	fctx, halt := context.WithCancel(ctx)
	f := &followers{ctrl: ctrl, cs: make([]*routing.Client, n), done: make(chan error, n), halt: halt}
	for i := range f.cs {
		f.cs[i] = routing.NewClient(ctrl.Current().Problem.Cost)
		go func(c *routing.Client) {
			f.done <- routing.Follow(fctx, c, &routing.ControllerSource{Ctrl: ctrl})
		}(f.cs[i])
	}
	return f
}

// stop cancels the follow loops; safe to call more than once. The done
// channel is buffered for every client, so the loops always exit.
func (f *followers) stop() { f.halt() }

// converge waits every client onto epoch v, verifies each (server, object)
// route bit-identical to the controller, then stops and reaps the follow
// loops. It returns the number of verified routes.
func (f *followers) converge(ctx context.Context, ctrl *online.Controller, v *online.Epoch) (int, error) {
	checks := 0
	for ci, c := range f.cs {
		if err := c.WaitVersion(ctx, v.Version, 5*time.Second); err != nil {
			return checks, fmt.Errorf("sim: client %d: %w", ci, err)
		}
		for i := 0; i < v.Problem.M; i++ {
			for k := int32(0); int(k) < v.Problem.N; k++ {
				want, err := ctrl.Route(i, k)
				if err != nil {
					return checks, err
				}
				got, err := c.Route(i, k)
				if err != nil {
					return checks, fmt.Errorf("sim: client %d route(%d,%d): %w", ci, i, k, err)
				}
				if got != want {
					return checks, fmt.Errorf("sim: client %d route(%d,%d) = %d, controller says %d", ci, i, k, got, want)
				}
				checks++
			}
		}
	}
	f.stop()
	for range f.cs {
		if err := <-f.done; err != nil && ctx.Err() == nil && err != context.Canceled {
			return checks, fmt.Errorf("sim: follow: %w", err)
		}
	}
	return checks, nil
}
