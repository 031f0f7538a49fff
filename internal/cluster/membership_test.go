package cluster

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/testutil"
)

// pingEndpoint is a minimal peer that only answers MethodPing.
func pingEndpoint(t *testing.T) *Endpoint {
	t.Helper()
	ep := NewEndpoint(CodecGob)
	HandleFunc(ep, MethodPing, ping)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep.Serve(lis)
	t.Cleanup(ep.Close)
	return ep
}

func TestMembershipProbeTransitions(t *testing.T) {
	testutil.LeakCheck(t)
	up := pingEndpoint(t)
	faults := &faultnet.Config{FailDial: map[int]bool{1: true}}

	type change struct {
		id       int
		from, to PeerState
	}
	var mu sync.Mutex
	var changes []change

	m := NewMembership([]Peer{
		{ID: 0, Addr: up.Addr()},
		{ID: 1, Addr: up.Addr()}, // same endpoint, but the dialer refuses peer 1
	}, MembershipConfig{
		DeathThreshold: 2,
		Dial: func(p Peer) DialFunc {
			return FaultyDialer(faults, p.ID)
		},
		OnChange: func(p Peer, from, to PeerState) {
			mu.Lock()
			changes = append(changes, change{p.ID, from, to})
			mu.Unlock()
		},
	})
	defer m.Close()

	ctx := context.Background()
	if got := m.State(0); got != Alive {
		t.Fatalf("initial state of peer 0 = %v", got)
	}

	// Probe 1: peer 1 has one consecutive failure -> Suspect.
	m.ProbeOnce(ctx)
	if got := m.State(1); got != Suspect {
		t.Fatalf("after 1 failed probe peer 1 = %v, want Suspect", got)
	}
	// Suspect still counts as alive: the coordinator keeps assigning to it.
	if alive := m.Alive(); len(alive) != 2 {
		t.Fatalf("Alive() with a Suspect peer = %v, want both", alive)
	}

	// Probe 2: second consecutive failure crosses DeathThreshold -> Dead.
	m.ProbeOnce(ctx)
	if got := m.State(1); got != Dead {
		t.Fatalf("after 2 failed probes peer 1 = %v, want Dead", got)
	}
	if alive := m.Alive(); len(alive) != 1 || alive[0] != 0 {
		t.Fatalf("Alive() after death = %v, want just peer 0", alive)
	}
	if got := m.State(0); got != Alive {
		t.Fatalf("healthy peer 0 = %v", got)
	}

	// Recovery: lift the fault, the next probe resurrects the peer.
	delete(faults.FailDial, 1)
	m.ProbeOnce(ctx)
	if got := m.State(1); got != Alive {
		t.Fatalf("after recovery peer 1 = %v, want Alive", got)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []change{
		{1, Alive, Suspect},
		{1, Suspect, Dead},
		{1, Dead, Alive},
	}
	if len(changes) != len(want) {
		t.Fatalf("OnChange log = %v, want %v", changes, want)
	}
	for i, c := range changes {
		if c != want[i] {
			t.Fatalf("OnChange[%d] = %v, want %v", i, c, want[i])
		}
	}
}

func TestMembershipReportFailure(t *testing.T) {
	testutil.LeakCheck(t)
	up := pingEndpoint(t)
	m := NewMembership([]Peer{{ID: 0, Addr: up.Addr()}}, MembershipConfig{DeathThreshold: 2})
	defer m.Close()

	// Out-of-band failures (forwarding errors) feed the same state machine.
	m.ReportFailure(0)
	if got := m.State(0); got != Suspect {
		t.Fatalf("after 1 reported failure = %v, want Suspect", got)
	}
	m.ReportFailure(0)
	if got := m.State(0); got != Dead {
		t.Fatalf("after 2 reported failures = %v, want Dead", got)
	}
	// A successful probe clears the counter.
	m.ProbeOnce(context.Background())
	if got := m.State(0); got != Alive {
		t.Fatalf("after successful probe = %v, want Alive", got)
	}
}

func TestMembershipUnknownPeerIsDead(t *testing.T) {
	up := pingEndpoint(t)
	m := NewMembership([]Peer{{ID: 0, Addr: up.Addr()}}, MembershipConfig{})
	defer m.Close()
	if got := m.State(42); got != Dead {
		t.Fatalf("unknown peer state = %v, want Dead", got)
	}
	if m.Client(42) != nil {
		t.Fatal("Client for unknown peer is non-nil")
	}
}

func TestMembershipStartLoopProbes(t *testing.T) {
	testutil.LeakCheck(t)
	faults := &faultnet.Config{FailDial: map[int]bool{0: true}}
	m := NewMembership([]Peer{{ID: 0, Addr: "127.0.0.1:1"}}, MembershipConfig{
		DeathThreshold: 1,
		ProbeTimeout:   100 * time.Millisecond,
		Dial:           func(p Peer) DialFunc { return FaultyDialer(faults, p.ID) },
	})
	ctx, cancel := context.WithCancel(context.Background())
	m.Start(ctx, 10*time.Millisecond)

	deadline := time.Now().Add(5 * time.Second)
	for m.State(0) != Dead {
		if time.Now().After(deadline) {
			t.Fatal("background probe loop never declared the peer dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	m.Close()
}
