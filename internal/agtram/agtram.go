// Package agtram implements the paper's contribution: the Axiomatic Game
// Theoretical Replica Allocation Mechanism (AGT-RAM) of Section 4 and
// Figure 2.
//
// Each server is a selfish agent holding private valuations — the cost of
// replication CoR_ik of every object it could host. In every round all
// agents, in parallel, compute their dominant (best) valuation and report
// only that single number to the central mechanism; the mechanism picks the
// globally best report, replicates that object on that server, pays the
// winner the second-best report, and broadcasts the placement so every
// agent can update its nearest-neighbor table. The loop ends when no agent
// has a beneficial feasible replica left.
//
// Five engines play the same agents, candidates.Agent (the incremental
// engine keeps the same lists as a candidates.Arena), and produce
// identical allocations and payments:
//
//   - Solve: synchronous rounds with the per-agent scans fanned out over a
//     worker pool (the PARFOR loops of Figure 2, reproduced literally);
//   - SolveIncremental: the event-driven default — cached dominant bids in
//     lazy max-heaps, re-pricing only the agents a broadcast can actually
//     have changed (see incremental.go);
//   - SolveDistributed, SolveNetwork and SolveTCP: one game of message
//     passing (see game.go) — a goroutine per agent with purely local
//     state, and the mechanism loop — over channels, over net.Pipe
//     connections, or over loopback TCP with agents that dial in and could
//     as well be separate processes. The two conn engines carry each
//     message on one internal/frame frame.
package agtram

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/candidates"
	"repro/internal/faultnet"
	"repro/internal/mechanism"
	"repro/internal/pool"
	"repro/internal/replication"
	"repro/internal/solver"
)

// Valuation selects how agents price candidate replicas.
type Valuation int

const (
	// LocalCoR is the paper's semi-distributed valuation: each agent prices
	// objects from its own reads and the public write volume only (Eq. 5).
	LocalCoR Valuation = iota
	// ExactDelta is the ablation valuation: the exact global OTC change of
	// the placement, which a real agent could not compute locally (it needs
	// every other server's NN table). Used by the valuation ablation bench.
	ExactDelta
)

// String names the valuation rule.
func (v Valuation) String() string {
	if v == ExactDelta {
		return "exact-delta"
	}
	return "local-cor"
}

// Config tunes the mechanism. The zero value is the paper's configuration.
type Config struct {
	// Workers bounds the in-process engines' fan-out — the synchronous
	// engine's PARFOR scan and the incremental engine's arena build — and
	// never changes a Result field; <= 0 selects GOMAXPROCS.
	Workers int
	// Payment selects the payment rule (default: the paper's second-price).
	Payment mechanism.PaymentRule
	// Valuation selects the pricing rule (default: the paper's local CoR).
	Valuation Valuation
	// MaxRounds caps the number of rounds; <= 0 means unbounded.
	MaxRounds int
	// OnRound, when non-nil, observes every allocation as the mechanism
	// makes it, on every engine. Useful for tracing and live dashboards;
	// must not block.
	OnRound func(Allocation)

	// The remaining fields configure the wire engines (SolveNetwork and
	// SolveTCP) only; the in-process engines have no link to fail.

	// RoundTimeout bounds each per-agent bid read and award write via
	// SetReadDeadline/SetWriteDeadline. An agent that misses a deadline is
	// evicted from the game. 0 means no deadline — a disconnected agent
	// still evicts promptly (its reads fail), but a live-and-silent agent
	// can stall the round.
	RoundTimeout time.Duration
	// HandshakeTimeout bounds SolveTCP's connect-and-identify phase;
	// agents that have not completed the hello by then are evicted before
	// the first round. 0 selects a 10s default.
	HandshakeTimeout time.Duration
	// Faults injects deterministic faults into the wire engines' links
	// (nil = none; the fault-free run is bit-identical to Solve).
	Faults *faultnet.Config
	// OnEvict, when non-nil, observes every eviction as it happens; must
	// not block.
	OnEvict func(Eviction)
	// OnListen, when non-nil, receives the listener address once SolveTCP
	// is accepting — the only way to learn an ephemeral port while the
	// solve is still running.
	OnListen func(net.Addr)
}

// defaultHandshakeTimeout bounds SolveTCP's identification phase when
// Config.HandshakeTimeout is zero: long enough for any loopback or LAN
// deployment, short enough that a dead peer cannot wedge the solve.
const defaultHandshakeTimeout = 10 * time.Second

// Eviction records one agent's removal from a distributed game: the
// mechanism timed the agent out or lost its connection and continued with
// the remaining bidders (the iterative auction is well-defined over any
// live subset — each round simply takes the best of the bids that arrived).
type Eviction = solver.Eviction

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Allocation is one mechanism decision: in round Round, object Object was
// replicated on server Server, which had reported Value and was paid
// Payment.
type Allocation struct {
	Round   int
	Object  int32
	Server  int32
	Value   int64
	Payment int64
}

// Result is the outcome of a run.
type Result struct {
	// Schema is the final replica placement (the mechanism's accounting of
	// every binary replicate decision).
	Schema *replication.Schema
	// Allocations lists every placement in round order.
	Allocations []Allocation
	// Payments accumulates the motivational payments per server (Axiom 5).
	Payments []int64
	// Rounds is the number of mechanism rounds executed (== len(Allocations)).
	Rounds int
	// Valuations counts CoR computations across all agents: the "heavy
	// processing" that stays on the servers. Solve charges one valuation
	// per candidate scanned per round; SolveIncremental charges one per
	// candidate actually re-priced, which is the same work in round one and
	// strictly less afterwards — the allocations and payments are identical
	// either way, only this counter differs. Neither count depends on
	// Config.Workers. The message-passing engines (SolveDistributed,
	// SolveNetwork, SolveTCP) see only bids, so they charge one valuation
	// per bid received in each round the mechanism decides.
	Valuations int64
	// Evictions lists every agent the wire engines removed from the game
	// (timeouts, broken connections, failed dials, infeasible bids), in
	// eviction order. Always empty for the in-process engines and for
	// fault-free runs.
	Evictions []Eviction
}

// Solve runs AGT-RAM with synchronous parallel rounds (Figure 2). Agents
// scan their candidate lists concurrently; the central mechanism then takes
// its single binary decision and broadcasts it.
//
// ctx is checked at the top of every round; on cancellation Solve returns
// ctx.Err() wrapped with the package name and the caller's Problem is left
// untouched (the mechanism works on a fresh schema).
func Solve(ctx context.Context, p *replication.Problem, cfg Config) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("agtram: nil problem")
	}
	schema := p.NewSchema()
	res := &Result{Schema: schema, Payments: make([]int64, p.M)}

	agents := candidates.BuildAgents(p)

	workers := pool.New(cfg.workers())
	defer workers.Close()
	bids := make([]mechanism.Bid, 0, len(agents))
	bidSlots := make([]mechanism.Bid, len(agents))
	hasBid := make([]bool, len(agents))

	for cfg.MaxRounds <= 0 || res.Rounds < cfg.MaxRounds {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("agtram: %w", err)
		}
		if len(agents) == 0 {
			break
		}
		// PARFOR: every agent computes its dominant valuation.
		scanAgents(agents, bidSlots, hasBid, workers, cfg.Valuation, schema, &res.Valuations)

		bids = bids[:0]
		for idx := range agents {
			if hasBid[idx] {
				bids = append(bids, bidSlots[idx])
			}
		}
		round, ok := mechanism.RunRound(bids, cfg.Payment)
		if !ok {
			break
		}
		winner := round.Winner
		if err := schema.CanPlace(winner.Item, winner.Agent); err != nil {
			// Cannot happen with consistent agent state; treat as corruption.
			return nil, fmt.Errorf("agtram: winning bid infeasible: %w", err)
		}
		if _, err := schema.PlaceReplica(winner.Item, winner.Agent); err != nil {
			return nil, err
		}
		alloc := Allocation{
			Round: res.Rounds, Object: winner.Item, Server: int32(winner.Agent),
			Value: winner.Value, Payment: round.Payment,
		}
		res.Allocations = append(res.Allocations, alloc)
		res.Payments[winner.Agent] += round.Payment
		res.Rounds++
		if cfg.OnRound != nil {
			cfg.OnRound(alloc)
		}

		// BROADCAST OMAX: all agents refresh NN state; the winner also
		// consumes capacity and retires the candidate.
		live := agents[:0]
		for _, a := range agents {
			a.Apply(p, winner.Item, winner.Agent)
			if a.Active() {
				live = append(live, a)
			}
		}
		// bidSlots/hasBid keep their full length; only the first
		// len(agents) entries are meaningful and scanAgents rewrites all of
		// them each round, so no compaction of the buffers is needed.
		agents = live
	}
	return res, nil
}

// serialScanThreshold is the candidate-count below which a round's scan
// runs inline: dispatching goroutines for a few thousand O(1) valuations
// costs more than the scan itself.
const serialScanThreshold = 16384

// scanAgents runs the per-agent candidate scans, fanning out over the
// worker pool only when the round carries enough work to amortize the
// dispatch.
func scanAgents(agents []*candidates.Agent, bidSlots []mechanism.Bid, hasBid []bool,
	workers *pool.Pool, val Valuation, schema *replication.Schema, valuations *int64) {

	scanOne := func(idx int) int64 {
		a := agents[idx]
		n := int64(len(a.Cands))
		var obj int32
		var v int64
		var ok bool
		if val == ExactDelta {
			obj, v, ok = bestExact(a, schema)
		} else {
			obj, v, ok = a.Best()
		}
		hasBid[idx] = ok
		if ok {
			bidSlots[idx] = mechanism.Bid{Agent: a.ID, Item: obj, Value: v}
		}
		return n
	}

	var total int64
	for _, a := range agents {
		total += int64(len(a.Cands))
	}
	// ExactDelta valuations are much heavier per candidate (they read the
	// shared schema), so they amortize the pool dispatch at a far smaller
	// round size than the O(1) local pricings.
	threshold := int64(serialScanThreshold)
	if val == ExactDelta {
		threshold = 65
	}
	if workers.Workers() == 1 || total < threshold {
		for idx := range agents {
			*valuations += scanOne(idx)
		}
		return
	}
	var counted int64
	workers.Batch(len(agents), func(lo, hi int) {
		var n int64
		for idx := lo; idx < hi; idx++ {
			n += scanOne(idx)
		}
		atomic.AddInt64(&counted, n)
	})
	*valuations += counted
}

// bestExact prices the agent's candidates with the exact global OTC delta
// (read-only against the shared schema; the round barrier orders these
// reads before the mechanism's single writer applies the placement).
func bestExact(a *candidates.Agent, schema *replication.Schema) (int32, int64, bool) {
	out := a.Cands[:0]
	var bestVal int64
	var bestObj int32
	found := false
	for _, c := range a.Cands {
		if c.Size > a.Residual {
			continue
		}
		v := -schema.DeltaIfPlaced(c.Object, a.ID)
		if v <= 0 {
			continue
		}
		out = append(out, c)
		if !found || v > bestVal || (v == bestVal && c.Object < bestObj) {
			bestVal, bestObj, found = v, c.Object, true
		}
	}
	a.Cands = out
	return bestObj, bestVal, found
}
