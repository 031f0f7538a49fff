package agtram

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/candidates"
	"repro/internal/faultnet"
	"repro/internal/replication"
)

// Dial retry policy of the in-process agents: a handful of attempts with
// capped exponential backoff, matching what a deployed agent would do
// against a central body that is still coming up.
const (
	dialAttempts   = 3
	dialBackoffMin = 10 * time.Millisecond
	dialBackoffMax = 250 * time.Millisecond
)

// RunRemoteAgent speaks the agent side of the AGT-RAM wire protocol over an
// established connection: hello, then rounds of one bid up / one award
// down, leaving the game by sending a bid with Done set. A real deployment
// runs this in the server process; the tests and SolveTCP run it in a
// goroutine over loopback. The function returns when the protocol ends, the
// connection breaks, or ctx is cancelled — cancellation closes conn to
// unblock any read or write in flight and returns ctx.Err() wrapped with
// the package name.
func RunRemoteAgent(ctx context.Context, conn net.Conn, p *replication.Problem, agentID int) error {
	return runRemoteAgent(ctx, conn, p, agentID, 0)
}

// runRemoteAgent is RunRemoteAgent plus fault injection: when crashRound is
// positive the agent closes its connection at the start of that (1-based)
// round instead of bidding — a mid-game crash as the mechanism sees it.
func runRemoteAgent(ctx context.Context, conn net.Conn, p *replication.Problem, agentID, crashRound int) error {
	if agentID < 0 || agentID >= p.M {
		return fmt.Errorf("agtram: agent id %d out of range [0,%d)", agentID, p.M)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("agtram: %w", err)
	}
	l := newConnLink(ctx, conn, 0)
	defer l.stop()
	err := l.send(msg{Server: int32(agentID)})
	if err != nil {
		err = fmt.Errorf("agtram: sending hello: %w", err)
	} else {
		err = playAgent(p, candidates.NewAgent(p, agentID), l, crashRound)
	}
	if err != nil && ctx.Err() != nil {
		return fmt.Errorf("agtram: %w", ctx.Err())
	}
	return err
}

// dialAgent connects one agent to the mechanism with retry and capped
// backoff. Injected dial failures (an unroutable agent) short-circuit
// before touching the network.
func dialAgent(ctx context.Context, addr string, id int, faults *faultnet.Config, timeout time.Duration) (net.Conn, error) {
	if faults.DialFails(id) {
		return nil, fmt.Errorf("dial %s: injected unroutable host", addr)
	}
	d := net.Dialer{Timeout: timeout}
	backoff := dialBackoffMin
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
			backoff *= 2
			if backoff > dialBackoffMax {
				backoff = dialBackoffMax
			}
		}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("dial %s (%d attempts): %w", addr, dialAttempts, lastErr)
}

// SolveTCP runs the mechanism over real TCP sockets on the loopback
// interface: it listens on addr (use "127.0.0.1:0" for an ephemeral port),
// spawns one agent goroutine per active server that dials in and speaks
// RunRemoteAgent, and runs the central mechanism over the accepted
// connections. The allocation sequence is identical to Solve.
//
// This is the deployment-shaped engine: the agent side only needs the
// public problem data and its own id, so the same protocol runs unchanged
// with agents in separate processes or hosts.
//
// The engine degrades gracefully instead of failing atomically. Agents
// whose dial fails, whose hello never arrives within Config.HandshakeTimeout,
// or whose connection breaks, times out (Config.RoundTimeout) or bids
// infeasibly mid-game are EVICTED: recorded in Result.Evictions (and
// Config.OnEvict) and removed from the player set, and the auction
// continues over the remaining bidders. A connection that arrives but never
// identifies itself cannot block the game — the hello read carries its own
// deadline, and the identification phase as a whole is bounded. With no
// faults and no deadline hits the run is bit-identical to Solve.
//
// ctx is checked at the top of every round; when it fires, every
// identified connection closes, the identification phase (if still
// running) returns, and SolveTCP closes the listener and every accepted
// connection, waits for every agent goroutine to exit, and returns
// ctx.Err() wrapped with the package name.
func SolveTCP(ctx context.Context, p *replication.Problem, cfg Config, addr string) (*Result, error) {
	g, err := newGame(ctx, p, cfg)
	if err != nil {
		return nil, err
	}
	handshakeTimeout := cfg.HandshakeTimeout
	if handshakeTimeout <= 0 {
		handshakeTimeout = defaultHandshakeTimeout
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("agtram: listen: %w", err)
	}
	if cfg.OnListen != nil {
		cfg.OnListen(ln.Addr())
	}

	// Which servers participate at all; pending holds those neither
	// identified nor evicted yet.
	var expected []int
	pending := make(map[int]bool)
	for _, a := range candidates.BuildAgents(p) {
		expected = append(expected, a.ID)
		pending[a.ID] = true
	}

	// Launch the agents; in a real deployment these are remote processes.
	// A failed dial is reported to the identification phase, which must
	// not wait for a hello that can never arrive.
	type dialFailure struct {
		agent int
		err   error
	}
	dialFailCh := make(chan dialFailure, len(expected))
	var wg sync.WaitGroup
	defer wg.Wait()
	for _, id := range expected {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := dialAgent(ctx, ln.Addr().String(), id, cfg.Faults, handshakeTimeout)
			if err != nil {
				dialFailCh <- dialFailure{agent: id, err: err}
				return
			}
			defer conn.Close()
			// The mechanism's own read errors decide evictions; the
			// agent-side error (if any) is the same broken link seen from
			// the other end, so it is not separately propagated.
			_ = runRemoteAgent(ctx, faultnet.Wrap(conn, id, cfg.Faults), p, id, cfg.Faults.CrashRound(id))
		}(id)
	}

	// Identification phase: accept asynchronously and read each hello under
	// its own deadline, so no connection — silent, slow or hostile — blocks
	// the others. Every accepted connection is tracked and closed when
	// SolveTCP returns; a hello that arrives after the phase has ended is
	// dropped.
	type hello struct {
		agent int
		link  *connLink
	}
	hellos := make(chan hello)
	phaseOver := make(chan struct{})
	acceptDone := make(chan struct{})
	var accepted []net.Conn // the accept loop's until acceptDone closes
	var hsWg sync.WaitGroup
	defer func() {
		ln.Close()
		<-acceptDone
		for _, c := range accepted {
			c.Close()
		}
		hsWg.Wait()
	}()
	go func() {
		defer close(acceptDone)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed: phase over or SolveTCP returning
			}
			accepted = append(accepted, conn)
			hsWg.Add(1)
			go func() {
				defer hsWg.Done()
				l := newConnLink(ctx, conn, 0)
				conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
				m, err := l.recv()
				// The game's reads carry Config.RoundTimeout, or no deadline.
				conn.SetReadDeadline(time.Time{})
				l.timeout = cfg.RoundTimeout
				if err != nil {
					l.close()
					return
				}
				select {
				case hellos <- hello{agent: int(m.Server), link: l}:
				case <-phaseOver:
					l.close()
				}
			}()
		}
	}()

	links := make(map[int]link, len(expected))
	deadline := time.NewTimer(handshakeTimeout)
	defer deadline.Stop()
	for len(pending) > 0 {
		select {
		case h := <-hellos:
			if !pending[h.agent] {
				h.link.close() // impostor or duplicate: not part of the game
				continue
			}
			delete(pending, h.agent)
			links[h.agent] = h.link
		case f := <-dialFailCh:
			if pending[f.agent] {
				delete(pending, f.agent)
				g.evict(f.agent, 0, fmt.Sprintf("dial failed: %v", f.err))
			}
		case <-deadline.C:
			for _, id := range expected {
				if pending[id] {
					g.evict(id, 0, "handshake timeout: no hello")
				}
			}
			clear(pending)
		case <-ctx.Done():
			clear(pending) // play returns ctx's error before its first round
		}
	}
	close(phaseOver)
	ln.Close() // the game's player set is fixed

	peers := make([]peer, 0, len(links))
	for _, id := range expected {
		if l := links[id]; l != nil {
			peers = append(peers, peer{id: id, link: l})
		}
	}
	return g.play(ctx, peers)
}
