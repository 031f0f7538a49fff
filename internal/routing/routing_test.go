package routing

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	_ "repro/internal/agtram" // register the agt-ram solver
	"repro/internal/online"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/testutil"
)

// newController builds a controller over a small deterministic instance.
func newController(t testing.TB, seed int64, cfg online.Config) *online.Controller {
	t.Helper()
	p := testutil.MustBuild(testutil.Small(seed))
	ctrl, err := online.New(p.Cost, p.Work, p.Capacity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// checkBitIdentical compares every (server, object) lookup of the client
// against the controller at the controller's current epoch. The caller must
// have converged the client onto that epoch first.
func checkBitIdentical(t *testing.T, ctrl *online.Controller, c *Client) int {
	t.Helper()
	e := ctrl.Current()
	if v := c.Version(); v != e.Version {
		t.Fatalf("client at version %d, controller at %d", v, e.Version)
	}
	checks := 0
	for i := 0; i < e.Problem.M; i++ {
		for k := int32(0); int(k) < e.Problem.N; k++ {
			want, err := ctrl.Route(i, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Route(i, k)
			if err != nil {
				t.Fatalf("client route(%d,%d): %v", i, k, err)
			}
			if got != want {
				t.Fatalf("route(%d,%d): client %d != controller %d at version %d", i, k, got, want, e.Version)
			}
			checks++
		}
	}
	return checks
}

// follow runs Follow in a goroutine and returns a stop func that cancels it
// and waits for exit.
func follow(t *testing.T, ctrl *online.Controller, c *Client) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Follow(ctx, c, &ControllerSource{Ctrl: ctrl}) }()
	return func() {
		cancel()
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("follow: %v", err)
		}
	}
}

func waitFor(t *testing.T, c *Client, v uint64) {
	t.Helper()
	if err := c.WaitVersion(context.Background(), v, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestClientBitIdenticalAcrossTrace is the ISSUE's differential test: a
// client following the epoch stream answers every nearest-replica lookup
// bit-identically to Controller.Route across a trace of demand deltas,
// catalogue growth, membership churn and solves — including a second client
// that joins mid-stream from a stale version and must resync through a
// deliberately tiny journal.
func TestClientBitIdenticalAcrossTrace(t *testing.T) {
	testutil.LeakCheck(t)
	ctrl := newController(t, 7, online.Config{Journal: 2})
	defer ctrl.Close()

	early := NewClient(ctrl.Current().Problem.Cost)
	stopEarly := follow(t, ctrl, early)
	defer stopEarly()

	apply := func(ds ...online.Delta) {
		t.Helper()
		if _, err := ctrl.ApplyDeltas(ds); err != nil {
			t.Fatal(err)
		}
	}
	step := func() {
		t.Helper()
		waitFor(t, early, ctrl.Current().Version)
		checkBitIdentical(t, ctrl, early)
	}

	// Demand shifts, then a solve that actually moves replicas.
	for i := 0; i < 4; i++ {
		apply(online.Delta{Kind: online.KindDemand, Server: i % 16, Object: int32(3 * i % 60), Reads: 4000})
		step()
	}
	if err := ctrl.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	step()

	// A client joining mid-stream: the 2-deep journal cannot replay from
	// version 0, so its first update must be a snapshot resync.
	late := NewClient(ctrl.Current().Problem.Cost)
	stopLate := follow(t, ctrl, late)
	defer stopLate()
	waitFor(t, late, ctrl.Current().Version)
	checkBitIdentical(t, ctrl, late)

	// Catalogue growth and membership churn, both clients tracking.
	apply(online.Delta{Kind: online.KindAddObject, Object: 60, Size: 1, Primary: 2})
	apply(online.Delta{Kind: online.KindDemand, Server: 5, Object: 60, Reads: 9000})
	apply(online.Delta{Kind: online.KindServerLeave, Server: 3})
	if err := ctrl.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	apply(online.Delta{Kind: online.KindServerJoin, Server: 3, Capacity: 1 << 40})
	if err := ctrl.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	step()
	waitFor(t, late, ctrl.Current().Version)
	checkBitIdentical(t, ctrl, late)

	// The early client rode through everything on diffs alone (its journal
	// never outran it); the late one needed at most its initial snapshot.
	if _, resyncs, stales := early.Stats(); resyncs != 0 || stales != 0 {
		t.Fatalf("early client resynced %d / staled %d; want a pure diff ride", resyncs, stales)
	}
}

// TestClientStaleDetection checks Apply's chain validation: an update whose
// diff does not extend the client's version is rejected with ErrStale and
// leaves the table untouched.
func TestClientStaleDetection(t *testing.T) {
	testutil.LeakCheck(t)
	ctrl := newController(t, 8, online.Config{})
	defer ctrl.Close()

	c := NewClient(ctrl.Current().Problem.Cost)
	if _, err := c.Route(0, 0); !errors.Is(err, ErrNotSynced) {
		t.Fatalf("unsynced Route error = %v, want ErrNotSynced", err)
	}
	if err := c.Apply(ctrl.Current().SnapshotUpdate()); err != nil {
		t.Fatal(err)
	}
	v := c.Version()

	// A diff from a version the client is not at.
	bad := &online.Update{Version: v + 5, Diff: &online.Diff{From: v + 4, Servers: 16}}
	if err := c.Apply(bad); !errors.Is(err, ErrStale) {
		t.Fatalf("gap diff error = %v, want ErrStale", err)
	}
	// A corrupt diff that chains correctly but removes an absent replica.
	bad = &online.Update{Version: v + 1, Diff: &online.Diff{
		From: v, Servers: 16,
		Remove: []online.ReplicaRef{{Object: 0, Server: 9}, {Object: 0, Server: 9}},
	}}
	if err := c.Apply(bad); !errors.Is(err, ErrStale) {
		t.Fatalf("corrupt diff error = %v, want ErrStale", err)
	}
	if c.Version() != v {
		t.Fatalf("rejected updates moved the version %d -> %d", v, c.Version())
	}
	if _, _, stales := c.Stats(); stales != 2 {
		t.Fatalf("stales = %d, want 2", stales)
	}
}

// TestClientRejectsOutOfRangeUpdates applies updates that would let Route
// index past the cost oracle: a replica or a new object's primary outside
// the system's servers, or a system larger than the oracle. Each is an
// error that leaves the previous table serving, and Route stays in range.
func TestClientRejectsOutOfRangeUpdates(t *testing.T) {
	ctrl := newController(t, 3, online.Config{})
	defer ctrl.Close()
	e := ctrl.Current()
	m, v := e.Problem.M, e.Version
	c := NewClient(e.Problem.Cost)
	if err := c.Apply(e.SnapshotUpdate()); err != nil {
		t.Fatal(err)
	}
	// snap copies the controller's snapshot with its last replica moved to
	// server m and the system resized to servers.
	snap := func(servers int) *online.Update {
		ps := *e.SnapshotUpdate().Snapshot
		ps.Replicas = append([]int32(nil), ps.Replicas...)
		ps.Replicas[len(ps.Replicas)-1] = int32(m)
		ps.Servers = servers
		return &online.Update{Version: v + 1, Snapshot: &ps}
	}
	diff := func(d online.Diff) *online.Update {
		d.From = v
		return &online.Update{Version: v + 1, Diff: &d}
	}
	for _, tc := range []struct {
		name string
		u    *online.Update
	}{
		{"diff places on server 99,999", diff(online.Diff{Servers: m, Place: []online.ReplicaRef{{Object: 0, Server: 99999}}})},
		{"diff places on server -1", diff(online.Diff{Servers: m, Place: []online.ReplicaRef{{Object: 0, Server: -1}}})},
		{"diff places on server m", diff(online.Diff{Servers: m, Place: []online.ReplicaRef{{Object: 0, Server: int32(m)}}})},
		{"new object's primary outside", diff(online.Diff{Servers: m, NewObjects: []online.ObjectMeta{{Object: int32(e.Problem.N), Primary: 99999, Size: 1}}})},
		{"diff beyond the oracle", diff(online.Diff{Servers: m + 1, Place: []online.ReplicaRef{{Object: 0, Server: int32(m)}}})},
		{"snapshot replica outside", snap(m)},
		{"snapshot beyond the oracle", snap(m + 1)},
	} {
		if err := c.Apply(tc.u); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		// Every object, a new one included: an accepted out-of-range
		// replica panics here.
		for k := int32(0); int(k) <= e.Problem.N; k++ {
			_, _ = c.Route(0, k)
		}
		checkBitIdentical(t, ctrl, c)
	}
}

// TestFollowResubscribesAfterEviction forces the slow-subscriber path: a
// client whose subscription buffer is one update deep follows a controller
// publishing bursts. Evictions close its stream mid-ride; Follow must
// resubscribe (journal replay or snapshot) until the client converges, and
// the final answers must still be bit-identical.
func TestFollowResubscribesAfterEviction(t *testing.T) {
	testutil.LeakCheck(t)
	ctrl := newController(t, 9, online.Config{Journal: 4})
	defer ctrl.Close()

	c := NewClient(ctrl.Current().Problem.Cost)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Follow(ctx, c, &ControllerSource{Ctrl: ctrl, Buffer: 1}) }()

	for i := 0; i < 40; i++ {
		if _, err := ctrl.ApplyDeltas([]online.Delta{{
			Kind: online.KindDemand, Server: i % 16, Object: int32(i % 60), Reads: int64(100 + i),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, c, ctrl.Current().Version)
	checkBitIdentical(t, ctrl, c)
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
}

// TestFollowStopsOnDrain checks the shutdown handshake: draining the
// controller ends Follow with nil, not an error and not a reconnect loop.
func TestFollowStopsOnDrain(t *testing.T) {
	testutil.LeakCheck(t)
	ctrl := newController(t, 10, online.Config{})
	c := NewClient(ctrl.Current().Problem.Cost)
	done := make(chan error, 1)
	go func() { done <- Follow(context.Background(), c, &ControllerSource{Ctrl: ctrl}) }()
	waitFor(t, c, ctrl.Current().Version)
	ctrl.DrainSubscribers()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Follow after drain = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Follow did not stop on drain")
	}
	ctrl.Close()
}

// Regression: an HTTPSource whose client timeout cannot outlive the long-poll
// window used to start anyway, so every parked poll died as a timeout and the
// loop spun on backoff forever. Subscribe now rejects the configuration.
func TestHTTPSourceTimeoutVsWait(t *testing.T) {
	testutil.LeakCheck(t)
	ctx := context.Background()
	bad := []*HTTPSource{
		{Base: "http://127.0.0.1:1", Client: &http.Client{Timeout: time.Second}, Wait: time.Second},
		{Base: "http://127.0.0.1:1", Client: &http.Client{Timeout: 100 * time.Millisecond}, Wait: time.Second},
	}
	for _, s := range bad {
		if _, _, err := s.Subscribe(ctx, 0); err == nil {
			t.Fatalf("timeout %v <= wait %v accepted", s.Client.Timeout, s.Wait)
		}
	}
	// Timeout comfortably above Wait — or unset on either side — is fine.
	ok := []*HTTPSource{
		{Base: "http://127.0.0.1:1", Client: &http.Client{Timeout: 2 * time.Second}, Wait: time.Second},
		{Base: "http://127.0.0.1:1", Client: &http.Client{Timeout: time.Second}},
		{Base: "http://127.0.0.1:1", Wait: time.Second},
	}
	for _, s := range ok {
		ch, cancel, err := s.Subscribe(ctx, 0)
		if err != nil {
			t.Fatalf("valid source rejected: %v", err)
		}
		cancel()
		for range ch {
		}
	}
}

// TestHTTPSourceRetriesUndecodableBody pins the poll loop's failure rule: a
// daemon answering 200 with a body that does not decode is retried with
// backoff, like any failed poll, and the channel stays open across the
// failures until the subscription is cancelled.
func TestHTTPSourceRetriesUndecodableBody(t *testing.T) {
	testutil.LeakCheck(t)
	var polls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		polls.Add(1)
		io.WriteString(w, "not json")
	}))
	defer ts.Close()

	ch, cancel, err := (&HTTPSource{Base: ts.URL}).Subscribe(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for polls.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("%d polls in 10 s", polls.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case u, ok := <-ch:
		if !ok {
			t.Fatal("the channel closed on an undecodable body")
		}
		t.Fatalf("an undecodable body delivered update %+v", u)
	default:
	}
	cancel()
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("an update arrived after cancel")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the channel stayed open after cancel")
	}
}

// TestHTTPSourceEndToEnd follows a real daemon over the long-poll transport:
// the client converges through GET /epochs, stays bit-identical through
// deltas and a solve, and ends cleanly when the server drains.
func TestHTTPSourceEndToEnd(t *testing.T) {
	testutil.LeakCheck(t)
	ctrl := newController(t, 11, online.Config{})
	srv := server.New(ctrl)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := NewClient(ctrl.Current().Problem.Cost)
	done := make(chan error, 1)
	go func() {
		done <- Follow(context.Background(), c, &HTTPSource{Base: ts.URL, Wait: 250 * time.Millisecond})
	}()

	for i := 0; i < 5; i++ {
		if _, err := ctrl.ApplyDeltas([]online.Delta{{
			Kind: online.KindDemand, Server: (2 * i) % 16, Object: int32((7 * i) % 60), Reads: 3000,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctrl.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, ctrl.Current().Version)
	checkBitIdentical(t, ctrl, c)

	srv.Drain()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Follow after server drain = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Follow did not stop when the server drained")
	}
	ctrl.Close()
}

// bodyTransport answers every request with 200 and a fixed body, so the
// /epochs long-poll decode runs without a socket.
type bodyTransport []byte

func (b bodyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK", Header: http.Header{},
		Body: io.NopCloser(bytes.NewReader(b)), Request: r,
	}, nil
}

// FuzzEpochsClient feeds arbitrary bytes through the client side of the
// epoch stream: HTTPSource's GET /epochs long-poll decode, then Apply for
// each decoded update onto a client over a 12-server oracle, then Route for
// every pair in and around the table. A body either fails to decode, or
// each update is applied or refused with an error; whatever was applied,
// every route answer is a replica of the object the client holds. Run with
// `go test -fuzz=FuzzEpochsClient ./internal/routing` to explore; the seed
// corpus runs on every plain `go test`.
func FuzzEpochsClient(f *testing.F) {
	const servers = 12
	f.Add([]byte(`[{"version":2,"snapshot":{"servers":4,"objects":2,"offsets":[0,1,3],"replicas":[0,1,3]}},` +
		`{"version":3,"diff":{"from":2,"servers":5,"new_objects":[{"object":2,"primary":4}],` +
		`"place":[{"object":0,"server":2}],"remove":[{"object":1,"server":3}]}}]`))
	f.Add([]byte(`[null]`))
	f.Add([]byte(`[{"version":1,"snapshot":{"servers":99,"objects":1,"offsets":[0,1],"replicas":[98]}}]`))
	f.Add([]byte(`[{"version":1,"snapshot":{"servers":3,"objects":1,"offsets":[0,1],"replicas":[0]}},` +
		`{"version":2,"diff":{"from":1,"servers":3,"remove":[{"object":0,"server":0}]}},{"version":9,"terminal":true}]`))
	f.Add([]byte(`{"version":1}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		c := NewClient(replication.UniformCost{Nodes: servers, Weight: 1})
		src := &HTTPSource{Base: "http://daemon", Client: &http.Client{Transport: bodyTransport(body)}}
		updates, err := src.poll(context.Background(), 0)
		if err != nil {
			return
		}
		for _, u := range updates {
			_ = c.Apply(u) // applied, or refused with an error
		}
		t0 := c.state.Load()
		if t0 == nil {
			return
		}
		for server := -1; server <= servers; server++ {
			for k := int32(-1); int(k) <= len(t0.replicas); k++ {
				from, err := c.Route(server, k)
				if err != nil {
					continue
				}
				if !slices.Contains(t0.replicas[k], from) {
					t.Fatalf("route(%d,%d) = %d, which holds no replica of %v", server, k, from, t0.replicas[k])
				}
			}
		}
	})
}
