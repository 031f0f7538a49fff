// Package online is the dynamic replica-placement controller behind the
// agtramd daemon. It owns a mutable workload (the delta-mutated state), the
// immutable DRP instance materialized from it, and the current placement —
// published together as an immutable, versioned Epoch behind an atomic
// pointer, so the routing hot path never takes a lock.
//
// Life of a delta batch: the batch is validated and applied on a clone of
// the state (all-or-nothing), a fresh Problem is materialized, the live
// placement is carried over onto it (infeasible replicas dropped — PR 3's
// eviction semantics), and the new Epoch is published. The controller then
// measures drift — how far the carried placement's savings fell below the
// savings achieved at the last solve — and, past the configured threshold,
// schedules a debounced re-solve through the solver registry. Solves run on
// a Snapshot of the instance, so deltas and routes proceed concurrently;
// when a solve finishes, its placement is published as the next epoch (or
// carried over once more if deltas landed mid-solve).
//
// Every publish also appends a wire-encodable Update — the placement diff
// that turned epoch V-1 into V — to a bounded journal and fans it out to
// subscribers (Subscribe), so clients replicate the placement locally and
// answer nearest-replica lookups without a server round-trip; see
// internal/routing for the client side.
package online

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distoracle"
	"repro/internal/faultnet"
	"repro/internal/replication"
	"repro/internal/solver"
	"repro/internal/workload"
)

// Config tunes the controller.
type Config struct {
	// Method is the solver registry name; empty means "agt-ram".
	Method string
	// Engine, Workers, Seed, RoundTimeout and Faults pass through to
	// solver.Options on every re-solve.
	Engine       string
	Workers      int
	Seed         int64
	RoundTimeout time.Duration
	Faults       *faultnet.Config
	// DriftThreshold is the drift (percentage points of savings, see
	// Metrics.Drift) past which a background re-solve is scheduled.
	// Zero or negative disables automatic solves; SolveNow still works.
	DriftThreshold float64
	// SolveDebounce is the minimum spacing between automatic solves (see
	// SolveLoop), so a delta storm coalesces into one re-solve instead of
	// one per batch.
	SolveDebounce time.Duration
	// GlauberSweeps overrides the glauber method's sweep budget (0 keeps the
	// solver's adaptive default, which scales with the instance size).
	GlauberSweeps int
	// WarmStart seeds re-solves with the live placement instead of solving
	// cold. Cold solves are deterministic in the materialized problem alone;
	// warm solves additionally depend on solve timing (which placement was
	// live), trading reproducibility for less placement churn.
	WarmStart bool
	// Journal is the epoch-journal depth: how many recent placement diffs
	// are kept for subscriber replay (DefaultJournal when zero). Subscribers
	// further behind resync with a full snapshot.
	Journal int
}

// Applied reports what a delta batch did.
type Applied struct {
	// Applied is the number of deltas in the batch (batches are atomic:
	// all applied, or none on error).
	Applied int `json:"applied"`
	// Dropped counts live replicas that became infeasible under the new
	// instance and were evicted during carry-over.
	Dropped int `json:"dropped"`
	// Drift is the controller's drift after the batch (see Metrics.Drift).
	Drift float64 `json:"drift"`
	// Version is the published Epoch's version.
	Version uint64 `json:"version"`
	// SolveScheduled reports whether this batch pushed drift past the
	// threshold and kicked the background solver.
	SolveScheduled bool `json:"solve_scheduled"`
}

// Metrics is a point-in-time controller snapshot.
type Metrics struct {
	Version       uint64  `json:"version"`
	Servers       int     `json:"servers"`
	ActiveServers int     `json:"active_servers"`
	Objects       int     `json:"objects"`
	Retired       int     `json:"retired_objects"`
	OTC           int64   `json:"otc"`
	BaseOTC       int64   `json:"base_otc"`
	Savings       float64 `json:"savings_percent"`
	// SolvedSavings is the savings achieved by the last solve (on its
	// problem); Drift is SolvedSavings minus the live placement's current
	// savings, clamped at zero — the cheap re-priced bound on how much the
	// placement decayed since the solver last ran.
	SolvedSavings  float64 `json:"solved_savings_percent"`
	Drift          float64 `json:"drift"`
	DriftThreshold float64 `json:"drift_threshold"`
	Replicas       int     `json:"replicas"`
	SolvesRun      int64   `json:"solves_run"`
	// SolverWork is the cumulative dominant-operation count across every
	// solve this controller ran (valuations, benefit evaluations, ...),
	// the cost axis the scenario benchmarks compare methods on.
	SolverWork    int64 `json:"solver_work"`
	DeltasApplied int64 `json:"deltas_applied"`
	CarriedDrops  int64 `json:"carried_drops"`
	Evictions     int64 `json:"evictions"`
	// Subscribers is the number of live epoch subscriptions; JournalLen how
	// many epochs the bounded journal currently holds for replay.
	Subscribers    int    `json:"subscribers"`
	JournalLen     int    `json:"journal_len"`
	LastSolveError string `json:"last_solve_error,omitempty"`
	// RowCache reports the lazy distance oracle's row-cache counters when the
	// instance runs on one (nil for dense matrices and cacheless oracles).
	RowCache *distoracle.CacheStats `json:"row_cache,omitempty"`
}

// Controller owns the mutable workload state and the published Epoch.
type Controller struct {
	cfg   Config
	epoch atomic.Pointer[Epoch]

	// mu guards the mutable state and the bookkeeping below — including the
	// journal and subscriber set. The routing path never takes it; delta
	// batches, epoch publication, subscription churn and metrics do.
	mu            sync.Mutex
	st            *state
	journal       journal
	subs          map[uint64]*Subscription
	nextSubID     uint64
	draining      bool
	solvedSavings float64
	drift         float64
	solvesRun     int64
	solverWork    int64
	deltasApplied int64
	carriedDrops  int64
	evictions     int64
	lastSolveErr  string
	lastPayments  []int64

	// solveMu serializes solver runs without blocking deltas or routes.
	solveMu sync.Mutex

	kick   chan struct{}
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New builds a controller over an initial workload and capacities. The
// initial placement is primary-only; call SolveNow (or RestorePlacement)
// to install a better one.
func New(cost replication.CostFn, w *workload.Workload, capacity []int64, cfg Config) (*Controller, error) {
	st, err := newState(cost, w, capacity)
	if err != nil {
		return nil, err
	}
	return newController(st, cfg)
}

// newController finishes construction over an already-built state — shared
// by New (initial workload) and NewFromState (wire snapshot).
func newController(st *state, cfg Config) (*Controller, error) {
	if cfg.Method == "" {
		cfg.Method = "agt-ram"
	}
	if _, ok := solver.Lookup(cfg.Method); !ok {
		return nil, fmt.Errorf("online: unknown method %q (have %v)", cfg.Method, solver.Names())
	}
	if cfg.Journal <= 0 {
		cfg.Journal = DefaultJournal
	}
	p, err := st.materialize()
	if err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, st: st, kick: make(chan struct{}, 1)}
	c.journal.max = cfg.Journal
	c.publishLocked(nil, &Epoch{Problem: p, Schema: p.NewSchema(), Version: 1, Cause: CauseInit})
	return c, nil
}

// Start launches the background solve loop (SolveLoop, spaced by
// SolveDebounce). Without Start, drift-triggered solves queue a kick that is
// consumed on the next Start; SolveNow remains available either way. Close
// stops the loop.
func (c *Controller) Start(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	c.cancel = cancel
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		SolveLoop(ctx, c.kick, c.cfg.SolveDebounce, func(ctx context.Context) {
			_ = c.SolveNow(ctx) // a failed solve is reported through Metrics.LastSolveError
		})
	}()
}

// Close stops the background loop and waits for it to exit, then drains any
// remaining epoch subscribers. The controller keeps serving routes and
// deltas after Close; only automatic solves and the epoch stream stop.
func (c *Controller) Close() {
	if c.cancel != nil {
		c.cancel()
	}
	c.wg.Wait()
	c.DrainSubscribers()
}

// Kick queues a wake-up for a SolveLoop; a wake-up already pending is
// enough.
func Kick(kicks chan<- struct{}) {
	select {
	case kicks <- struct{}{}:
	default:
	}
}

// SolveLoop is the one debounced solve loop: the daemon's drift-triggered
// re-solve, the cluster coordinator's drift-triggered cluster solve and
// re-partition, and a shard's autonomous self-solve all run on it. It runs
// solve once per kick until ctx ends, under one spacing rule: a run starts
// at least debounce after the previous run ended, and kicks that arrive
// while the loop waits or runs coalesce into one more run (kicks must have
// a buffer of one). Solves forced outside the loop (SolveNow, POST /solve)
// do not move the window.
func SolveLoop(ctx context.Context, kicks <-chan struct{}, debounce time.Duration, solve func(context.Context)) {
	var ended time.Time // when the previous run ended; zero before the first
	for {
		select {
		case <-ctx.Done():
			return
		case <-kicks:
		}
		if wait := debounce - time.Since(ended); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		solve(ctx)
		ended = time.Now()
	}
}

// Current returns the live Epoch. Everything reachable from it is
// immutable; callers may read it without synchronization.
func (c *Controller) Current() *Epoch { return c.epoch.Load() }

// Route answers "which server does server i read object k from" against the
// live placement, using the canonical replication.Nearest rule (lowest cost,
// ties to the lowest server id) — the same pure function the client-side
// routing library evaluates, so a synced routing.Client answers
// bit-identically. It is lock-free and never blocks on deltas or solves.
func (c *Controller) Route(server int, object int32) (int32, error) {
	return c.epoch.Load().Route(server, object)
}

// Placement reports the live placement.
func (c *Controller) Placement() replication.PlacementReport {
	return c.epoch.Load().Schema.Report()
}

// ApplyDeltas applies a batch atomically: every delta validates and applies
// on a clone of the state, or the whole batch is rejected and the live state
// is untouched. On success the new instance is materialized, the live
// placement carried over, and the next epoch published to the journal and
// all subscribers.
func (c *Controller) ApplyDeltas(ds []Delta) (Applied, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	next := c.st.clone()
	var leaves int64
	for i, d := range ds {
		if err := next.apply(d); err != nil {
			return Applied{}, fmt.Errorf("delta %d: %w", i, err)
		}
		if d.Kind == KindServerLeave {
			leaves++
		}
	}
	p, err := next.materialize()
	if err != nil {
		return Applied{}, err
	}
	cur := c.epoch.Load()
	carried, dropped := p.CarryOver(cur.Schema.Matrix())
	c.st = next
	e := &Epoch{Problem: p, Schema: carried, Version: cur.Version + 1, Cause: CauseDeltas}
	c.publishLocked(cur, e)

	c.deltasApplied += int64(len(ds))
	c.carriedDrops += int64(dropped)
	c.evictions += leaves
	c.drift = clampDrift(c.solvedSavings - carried.Savings())
	scheduled := c.cfg.DriftThreshold > 0 && c.drift > c.cfg.DriftThreshold
	if scheduled {
		Kick(c.kick)
	}
	return Applied{
		Applied: len(ds), Dropped: dropped, Drift: c.drift,
		Version: e.Version, SolveScheduled: scheduled,
	}, nil
}

// SolveNow runs one solve through the registry on the live epoch's
// instance and publishes the result. A Problem is immutable once built, so
// the solver reads the one the read path serves. Deltas and routes proceed
// during the solve; if a delta batch publishes an epoch mid-solve, the
// solved placement is carried over onto the newer instance instead of
// clobbering it.
func (c *Controller) SolveNow(ctx context.Context) error {
	c.solveMu.Lock()
	defer c.solveMu.Unlock()

	base := c.epoch.Load()
	opts := solver.Options{
		Workers:       c.cfg.Workers,
		Seed:          c.cfg.Seed,
		Engine:        c.cfg.Engine,
		RoundTimeout:  c.cfg.RoundTimeout,
		Faults:        c.cfg.Faults,
		GlauberSweeps: c.cfg.GlauberSweeps,
	}
	if c.cfg.WarmStart {
		opts.Warm = base.Schema
	}
	s, _ := solver.Lookup(c.cfg.Method)
	out, err := s.Solve(ctx, base.Problem, opts)

	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.lastSolveErr = err.Error()
		return err
	}
	c.lastSolveErr = ""
	c.solvesRun++
	c.solverWork += out.Work
	c.solvedSavings = out.Schema.Savings()
	c.evictions += int64(len(out.Evictions))
	c.lastPayments = append([]int64(nil), out.Payments...)

	cur := c.epoch.Load()
	if cur.Version == base.Version {
		// No deltas landed mid-solve: install the solved placement on the
		// instance it was solved on.
		c.publishLocked(cur, &Epoch{Problem: cur.Problem, Schema: out.Schema, Version: cur.Version + 1, Cause: CauseSolve})
		c.drift = 0
		return nil
	}
	// Deltas landed while we solved: carry the solved placement onto the
	// newest instance and re-measure drift against it.
	carried, dropped := cur.Problem.CarryOver(out.Schema.Matrix())
	c.carriedDrops += int64(dropped)
	c.publishLocked(cur, &Epoch{Problem: cur.Problem, Schema: carried, Version: cur.Version + 1, Cause: CauseSolve})
	c.drift = clampDrift(c.solvedSavings - carried.Savings())
	if c.cfg.DriftThreshold > 0 && c.drift > c.cfg.DriftThreshold {
		Kick(c.kick)
	}
	return nil
}

// RestorePlacement installs a previously persisted placement (a snapshot
// written by the daemon on shutdown) onto the live instance. The report
// must match the instance shape and primaries; see replication.Restore.
func (c *Controller) RestorePlacement(rep replication.PlacementReport) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.epoch.Load()
	s, err := cur.Problem.Restore(rep)
	if err != nil {
		return err
	}
	c.publishLocked(cur, &Epoch{Problem: cur.Problem, Schema: s, Version: cur.Version + 1, Cause: CauseRestore})
	c.solvedSavings = s.Savings()
	c.drift = 0
	return nil
}

// LastSolvePayments returns the per-server mechanism payments of the most
// recent successful solve (nil before the first solve, or when the method
// reports none). The cluster's differential test compares these across the
// single daemon and a 1-shard cluster; the returned slice is a copy.
func (c *Controller) LastSolvePayments() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lastPayments == nil {
		return nil
	}
	return append([]int64(nil), c.lastPayments...)
}

// Snapshot of the controller's counters and the live placement's economics.
func (c *Controller) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.epoch.Load()
	active := 0
	for _, a := range c.st.active {
		if a {
			active++
		}
	}
	retired := 0
	for _, r := range c.st.retired {
		if r {
			retired++
		}
	}
	m := Metrics{
		Version:        v.Version,
		Servers:        v.Problem.M,
		ActiveServers:  active,
		Objects:        v.Problem.N,
		Retired:        retired,
		OTC:            v.Schema.TotalCost(),
		BaseOTC:        v.Schema.BaseCost(),
		Savings:        v.Schema.Savings(),
		SolvedSavings:  c.solvedSavings,
		Drift:          c.drift,
		DriftThreshold: c.cfg.DriftThreshold,
		Replicas:       v.Schema.Placed(),
		SolvesRun:      c.solvesRun,
		SolverWork:     c.solverWork,
		DeltasApplied:  c.deltasApplied,
		CarriedDrops:   c.carriedDrops,
		Evictions:      c.evictions,
		Subscribers:    len(c.subs),
		JournalLen:     len(c.journal.ring),
		LastSolveError: c.lastSolveErr,
	}
	if cs, ok := c.st.cost.(interface{ Stats() distoracle.CacheStats }); ok {
		stats := cs.Stats()
		m.RowCache = &stats
	}
	return m
}

func clampDrift(d float64) float64 {
	if d < 0 {
		return 0
	}
	return d
}
