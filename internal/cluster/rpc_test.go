package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/testutil"
)

// echoEndpoint serves an "echo" method that returns its request, and a
// "boom" method that always fails.
func echoEndpoint(t *testing.T, codec Codec) *Endpoint {
	t.Helper()
	ep := NewEndpoint(codec)
	HandleFunc(ep, "echo", func(ctx context.Context, req *echoMsg) (any, error) {
		return &echoMsg{Text: req.Text, N: req.N + 1}, nil
	})
	HandleFunc(ep, "boom", func(ctx context.Context, req *echoMsg) (any, error) {
		return nil, errors.New("handler exploded")
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep.Serve(lis)
	t.Cleanup(ep.Close)
	return ep
}

type echoMsg struct {
	Text string
	N    int
}

func TestRPCRoundTripBothCodecs(t *testing.T) {
	testutil.LeakCheck(t)
	for _, codec := range []Codec{CodecGob, CodecJSON} {
		t.Run(string(codec), func(t *testing.T) {
			ep := echoEndpoint(t, codec)
			c := NewClient(ep.Addr(), codec, nil)
			defer c.Close()
			for i := 0; i < 5; i++ {
				var rep echoMsg
				if err := c.Call(context.Background(), "echo", &echoMsg{Text: "hi", N: i}, &rep); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				if rep.Text != "hi" || rep.N != i+1 {
					t.Fatalf("call %d: got %+v", i, rep)
				}
			}
		})
	}
}

func TestRPCRemoteError(t *testing.T) {
	testutil.LeakCheck(t)
	ep := echoEndpoint(t, CodecGob)
	c := NewClient(ep.Addr(), CodecGob, nil)
	defer c.Close()

	err := c.Call(context.Background(), "boom", &echoMsg{}, nil)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if !strings.Contains(remote.Msg, "handler exploded") {
		t.Fatalf("remote error lost the message: %v", remote)
	}
	// A remote error does not poison the connection: the next call works.
	var rep echoMsg
	if err := c.Call(context.Background(), "echo", &echoMsg{Text: "after"}, &rep); err != nil {
		t.Fatalf("call after remote error: %v", err)
	}
}

func TestRPCUnknownMethod(t *testing.T) {
	testutil.LeakCheck(t)
	ep := echoEndpoint(t, CodecJSON)
	c := NewClient(ep.Addr(), CodecJSON, nil)
	defer c.Close()
	err := c.Call(context.Background(), "nope", &echoMsg{}, nil)
	var remote *RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "unknown method") {
		t.Fatalf("want unknown-method RemoteError, got %v", err)
	}
}

func TestRPCConcurrentClients(t *testing.T) {
	testutil.LeakCheck(t)
	ep := echoEndpoint(t, CodecGob)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := NewClient(ep.Addr(), CodecGob, nil)
			defer cl.Close()
			for i := 0; i < 20; i++ {
				var rep echoMsg
				if err := cl.Call(context.Background(), "echo", &echoMsg{N: c*100 + i}, &rep); err != nil {
					t.Errorf("client %d call %d: %v", c, i, err)
					return
				}
				if rep.N != c*100+i+1 {
					t.Errorf("client %d call %d: got %d", c, i, rep.N)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestRPCRedialAfterEndpointRestart(t *testing.T) {
	testutil.LeakCheck(t)
	ep := NewEndpoint(CodecGob)
	HandleFunc(ep, "echo", func(ctx context.Context, req *echoMsg) (any, error) {
		return req, nil
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep.Serve(lis)
	addr := ep.Addr()

	c := NewClient(addr, CodecGob, nil)
	defer c.Close()
	if err := c.Call(context.Background(), "echo", &echoMsg{Text: "one"}, &echoMsg{}); err != nil {
		t.Fatal(err)
	}
	ep.Close()

	// Dead endpoint: calls fail with a transport error, not a hang.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	err = c.Call(ctx, "echo", &echoMsg{Text: "two"}, &echoMsg{})
	cancel()
	if err == nil {
		t.Fatal("call against a closed endpoint succeeded")
	}
	var remote *RemoteError
	if errors.As(err, &remote) {
		t.Fatalf("transport failure misreported as remote error: %v", err)
	}

	// Restart on the same address: the client redials transparently.
	ep2 := NewEndpoint(CodecGob)
	HandleFunc(ep2, "echo", func(ctx context.Context, req *echoMsg) (any, error) {
		return req, nil
	})
	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	ep2.Serve(lis2)
	defer ep2.Close()
	if err := c.Call(context.Background(), "echo", &echoMsg{Text: "three"}, &echoMsg{}); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
}

func TestRPCFaultyDialerFailDial(t *testing.T) {
	testutil.LeakCheck(t)
	ep := echoEndpoint(t, CodecGob)
	faults := &faultnet.Config{FailDial: map[int]bool{3: true}}

	blocked := NewClient(ep.Addr(), CodecGob, FaultyDialer(faults, 3))
	defer blocked.Close()
	if err := blocked.Call(context.Background(), "echo", &echoMsg{}, nil); err == nil {
		t.Fatal("FailDial peer dialed successfully")
	}

	open := NewClient(ep.Addr(), CodecGob, FaultyDialer(faults, 4))
	defer open.Close()
	if err := open.Call(context.Background(), "echo", &echoMsg{}, &echoMsg{}); err != nil {
		t.Fatalf("fault-free peer failed: %v", err)
	}
}

func TestRPCTruncatedLinkFailsCall(t *testing.T) {
	testutil.LeakCheck(t)
	ep := echoEndpoint(t, CodecGob)
	// The link delivers 10 bytes then goes silent mid-frame: the call must
	// fail by deadline, not hang.
	faults := &faultnet.Config{TruncateAfter: map[int]int{1: 10}}
	c := NewClient(ep.Addr(), CodecGob, FaultyDialer(faults, 1))
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if err := c.Call(ctx, "echo", &echoMsg{Text: strings.Repeat("x", 100)}, &echoMsg{}); err == nil {
		t.Fatal("call over a truncated link succeeded")
	}
}

// TestRPCSteadyStateAllocs pins the transport's allocation budget: after
// warm-up, a round-trip reuses the client's and the connection's frame
// buffers, so the only per-call allocations left are the codec's own (gob
// re-sends type info per message). The bound has headroom over the measured
// ~350 — it exists to catch the envelope regressing to per-call buffer or
// double-encode allocations (BENCH_9 measured 47k allocs/op for a 2-shard
// solve before frames were pooled).
func TestRPCSteadyStateAllocs(t *testing.T) {
	testutil.LeakCheck(t)
	ep := echoEndpoint(t, CodecGob)
	c := NewClient(ep.Addr(), CodecGob, nil)
	defer c.Close()
	var rep echoMsg
	for i := 0; i < 5; i++ {
		if err := c.Call(context.Background(), "echo", &echoMsg{Text: "warm", N: i}, &rep); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.Call(context.Background(), "echo", &echoMsg{Text: "steady", N: 1}, &rep); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 500 {
		t.Errorf("steady-state RPC round-trip allocates %.0f objects (budget 500)", allocs)
	}
	sent, recv := c.WireBytes()
	if sent == 0 || recv == 0 {
		t.Errorf("wire byte counters not advancing: sent=%d recv=%d", sent, recv)
	}
}

func TestParseCodec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Codec
		err  bool
	}{
		{"", CodecGob, false},
		{"gob", CodecGob, false},
		{"json", CodecJSON, false},
		{"xml", "", true},
	} {
		got, err := ParseCodec(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseCodec(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestEndpointCloseUnblocksInFlight(t *testing.T) {
	testutil.LeakCheck(t)
	ep := NewEndpoint(CodecGob)
	started := make(chan struct{})
	HandleFunc(ep, "slow", func(ctx context.Context, req *echoMsg) (any, error) {
		close(started)
		<-ctx.Done() // blocks until Close cancels the endpoint context
		return nil, fmt.Errorf("canceled: %w", ctx.Err())
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep.Serve(lis)

	c := NewClient(ep.Addr(), CodecGob, nil)
	defer c.Close()
	errc := make(chan error, 1)
	go func() { errc <- c.Call(context.Background(), "slow", &echoMsg{}, nil) }()
	<-started
	ep.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("in-flight call returned nil after endpoint close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call still blocked after endpoint close")
	}
}
