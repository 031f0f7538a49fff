package agtram

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/candidates"
	"repro/internal/faultnet"
	"repro/internal/replication"
	"repro/internal/testutil"
)

// activeAgent returns the first server that participates in the game for p;
// fault schedules must name a live victim or they test nothing.
func activeAgent(t *testing.T, p *replication.Problem) int {
	t.Helper()
	agents := candidates.BuildAgents(p)
	if len(agents) == 0 {
		t.Fatal("problem has no active agents")
	}
	return agents[0].ID
}

// assertEvicted checks that agent was evicted exactly once and that the
// run's placement is still a valid schema: every invariant holds and the
// victim won nothing after its eviction round.
func assertEvicted(t *testing.T, res *Result, agent int) Eviction {
	t.Helper()
	var found *Eviction
	for i := range res.Evictions {
		if res.Evictions[i].Agent == agent {
			if found != nil {
				t.Fatalf("agent %d evicted twice: %+v and %+v", agent, *found, res.Evictions[i])
			}
			found = &res.Evictions[i]
		}
	}
	if found == nil {
		t.Fatalf("agent %d not evicted; evictions: %+v", agent, res.Evictions)
	}
	if err := res.Schema.ValidateInvariants(); err != nil {
		t.Fatalf("evicted run breaks schema invariants: %v", err)
	}
	// Allocation.Round is 0-based, Eviction.Round 1-based: an allocation in
	// 0-based round r happened in 1-based round r+1, so r >= found.Round
	// means a win strictly after the eviction round.
	for _, al := range res.Allocations {
		if int(al.Server) == agent && al.Round >= found.Round {
			t.Fatalf("agent %d won in round %d after eviction in round %d",
				agent, al.Round+1, found.Round)
		}
	}
	return *found
}

// Regression for the dial-failure deadlock: an unroutable agent used to
// leave the accept loop waiting forever for a hello that could never arrive
// while the error sat unread in a write-only map. Now the dial failure is
// surfaced, the agent evicted before the game, and the solve completes.
func TestSolveTCPDialFailureEvicts(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(41))
	victim := activeAgent(t, p)
	var observed []Eviction
	cfg := Config{
		Faults:  &faultnet.Config{FailDial: map[int]bool{victim: true}},
		OnEvict: func(ev Eviction) { observed = append(observed, ev) },
	}
	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		defer close(done)
		res, err = SolveTCP(context.Background(), p, cfg, "127.0.0.1:0")
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("SolveTCP hung on a failed dial (the old deadlock)")
	}
	if err != nil {
		t.Fatalf("solve errored instead of evicting: %v", err)
	}
	ev := assertEvicted(t, res, victim)
	if ev.Round != 0 {
		t.Fatalf("dial failure evicted in round %d, want 0 (pre-game)", ev.Round)
	}
	if len(observed) != len(res.Evictions) {
		t.Fatalf("OnEvict saw %d evictions, result records %d", len(observed), len(res.Evictions))
	}
}

// Regression for the silent-peer hang: a connection that says nothing used
// to block the synchronous hello read forever. The handshake now reads
// hellos under a deadline per connection, so a mute stranger neither blocks
// the game nor perturbs its outcome.
func TestSolveTCPSilentPeerDoesNotBlock(t *testing.T) {
	testutil.LeakCheck(t)
	scfg := testutil.Small(42)
	want := mustSolve(t, testutil.MustBuild(scfg), Config{})

	silent := make(chan net.Conn, 1)
	cfg := Config{
		HandshakeTimeout: 2 * time.Second,
		OnListen: func(addr net.Addr) {
			go func() {
				conn, err := net.Dial("tcp", addr.String())
				if err == nil {
					silent <- conn // connect, then say nothing
				}
			}()
		},
	}
	res, err := SolveTCP(context.Background(), testutil.MustBuild(scfg), cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evictions) != 0 {
		t.Fatalf("a stranger's silent connection caused evictions: %+v", res.Evictions)
	}
	assertSameAllocations(t, want, res)
	select {
	case conn := <-silent:
		conn.Close()
	case <-time.After(2 * time.Second):
		// The solve can finish before the stray dial lands; nothing to close.
	}
}

// A connection that says hello in another server's name and then bids for
// a placement the schema cannot take is evicted in round 1, and the game
// goes on without it. The real agent's writes are delayed so the scripted
// hello wins the race for the victim's id.
func TestSolveTCPInfeasibleBidEvicts(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(47))
	victim := activeAgent(t, p)
	scripted := make(chan error, 1)
	cfg := Config{
		Faults: &faultnet.Config{Delay: map[int]time.Duration{victim: 300 * time.Millisecond}},
		OnListen: func(addr net.Addr) {
			go func() { scripted <- bidOutOfRange(addr, victim, p.N) }()
		},
	}
	res, err := SolveTCP(context.Background(), p, cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("solve errored instead of evicting: %v", err)
	}
	ev := assertEvicted(t, res, victim)
	if ev.Round != 1 || !strings.Contains(ev.Reason, "infeasible bid") {
		t.Fatalf("eviction %+v, want an infeasible bid in round 1", ev)
	}
	if err := <-scripted; err != nil {
		t.Fatal(err)
	}
}

// bidOutOfRange speaks for agent id and bids a huge value for an object
// past the catalogue of n objects.
func bidOutOfRange(addr net.Addr, id, n int) error {
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		return err
	}
	defer conn.Close()
	l := newConnLink(context.Background(), conn, 0)
	if err := l.send(msg{Server: int32(id)}); err != nil {
		return err
	}
	if err := l.send(msg{Object: int32(n + 5), Value: 1 << 60}); err != nil {
		return err
	}
	if aw, err := l.recv(); err == nil {
		return fmt.Errorf("infeasible bidder received %+v instead of losing its link", aw)
	}
	return nil
}

// faultMatrix is the shared crash/truncate/slow/drop schedule both wire
// engines must survive: the solve completes, the victim is evicted, and the
// surviving placement is a valid schema.
func faultMatrix(victim int) []struct {
	name   string
	faults faultnet.Config
} {
	return []struct {
		name   string
		faults faultnet.Config
	}{
		{"crash-mid-round", faultnet.Config{CrashAtRound: map[int]int{victim: 2}}},
		{"truncated-frame", faultnet.Config{TruncateAfter: map[int]int{victim: 192}}},
		{"slow-agent-hits-deadline", faultnet.Config{Delay: map[int]time.Duration{victim: 300 * time.Millisecond}}},
		{"link-severs-immediately", faultnet.Config{Seed: 7, Drop: map[int]float64{victim: 1}}},
	}
}

func TestFaultMatrixNetwork(t *testing.T) {
	p0 := testutil.MustBuild(testutil.Small(43))
	victim := activeAgent(t, p0)
	for _, tc := range faultMatrix(victim) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			testutil.LeakCheck(t)
			faults := tc.faults
			cfg := Config{RoundTimeout: 100 * time.Millisecond, Faults: &faults}
			res, err := SolveNetwork(context.Background(), testutil.MustBuild(testutil.Small(43)), cfg)
			if err != nil {
				t.Fatalf("solve errored instead of evicting: %v", err)
			}
			assertEvicted(t, res, victim)
		})
	}
}

func TestFaultMatrixTCP(t *testing.T) {
	p0 := testutil.MustBuild(testutil.Small(44))
	victim := activeAgent(t, p0)
	matrix := faultMatrix(victim)
	matrix = append(matrix, struct {
		name   string
		faults faultnet.Config
	}{"dial-refused", faultnet.Config{FailDial: map[int]bool{victim: true}}})
	for _, tc := range matrix {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			testutil.LeakCheck(t)
			faults := tc.faults
			cfg := Config{
				RoundTimeout: 100 * time.Millisecond,
				// Short: drop=1 severs the hello itself, so the victim can
				// only be evicted when the identification phase gives up.
				HandshakeTimeout: 500 * time.Millisecond,
				Faults:           &faults,
			}
			res, err := SolveTCP(context.Background(), testutil.MustBuild(testutil.Small(44)), cfg, "127.0.0.1:0")
			if err != nil {
				t.Fatalf("solve errored instead of evicting: %v", err)
			}
			assertEvicted(t, res, victim)
		})
	}
}

// A solve stalled in its identification phase (every hello delayed past the
// cancel) must abort promptly on ctx and tear everything down — listener,
// accepted connections, agent goroutines.
func TestSolveTCPCancelDuringStalledHandshake(t *testing.T) {
	testutil.LeakCheck(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		Faults: &faultnet.Config{DelayAll: 300 * time.Millisecond},
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	res, err := SolveTCP(ctx, testutil.MustBuild(testutil.Small(45)), cfg, "127.0.0.1:0")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("got a result alongside the cancellation error")
	}
}

// Evicting one agent must leave a placement that still satisfies every
// capacity and primary constraint, and the payments of the surviving
// winners must be non-negative.
func TestEvictedRunRespectsConstraints(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(46))
	victim := activeAgent(t, p)
	cfg := Config{
		RoundTimeout: 100 * time.Millisecond,
		Faults:       &faultnet.Config{CrashAtRound: map[int]int{victim: 1}},
	}
	res, err := SolveNetwork(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := assertEvicted(t, res, victim)
	if ev.Round != 1 {
		t.Fatalf("crash at round 1 evicted in round %d", ev.Round)
	}
	if res.Payments[victim] != 0 {
		t.Fatalf("agent crashed before bidding but was paid %d", res.Payments[victim])
	}
	for i, pay := range res.Payments {
		if pay < 0 {
			t.Fatalf("server %d has negative cumulative payment %d", i, pay)
		}
	}
	if err := res.Schema.ValidateInvariants(); err != nil {
		t.Fatal(err)
	}
}
