package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/online"
	"repro/internal/testutil"
)

func TestPlacementETag(t *testing.T) {
	ctrl, ts := newTestServer(t, 11, online.Config{})

	resp := getJSON(t, ts.URL+"/placement", nil)
	etag := resp.Header.Get("Etag")
	ver := resp.Header.Get("X-Epoch-Version")
	if etag == "" || ver == "" {
		t.Fatalf("placement missing validators: etag %q version %q", etag, ver)
	}
	if want := fmt.Sprintf("%d", ctrl.Current().Version); ver != want || etag != `"`+want+`"` {
		t.Fatalf("validators etag %q / version %q, want epoch %s", etag, ver, want)
	}

	// Same version: If-None-Match short-circuits to 304.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/placement", nil)
	req.Header.Set("If-None-Match", etag)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotModified {
		t.Fatalf("matching If-None-Match: status %d, want 304", r2.StatusCode)
	}

	// A publish invalidates the tag.
	if _, err := ctrl.ApplyDeltas([]online.Delta{{Kind: online.KindDemand, Server: 1, Object: 2, Reads: 100}}); err != nil {
		t.Fatal(err)
	}
	r3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("stale If-None-Match: status %d, want 200", r3.StatusCode)
	}
	if got := r3.Header.Get("Etag"); got == etag {
		t.Fatalf("etag did not change across a publish: %q", got)
	}
}

func TestRouteBatch(t *testing.T) {
	ctrl, ts := newTestServer(t, 12, online.Config{})
	pairs := []RoutePair{{Server: 0, Object: 1}, {Server: 3, Object: 7}, {Server: 15, Object: 59}}
	body, _ := json.Marshal(pairs)
	resp, err := http.Post(ts.URL+"/route", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Version  uint64  `json:"version"`
		ReadFrom []int32 `json:"read_from"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || out.Version != ctrl.Current().Version || len(out.ReadFrom) != len(pairs) {
		t.Fatalf("batch response %+v (status %d)", out, resp.StatusCode)
	}
	for i, p := range pairs {
		want, err := ctrl.Route(p.Server, p.Object)
		if err != nil {
			t.Fatal(err)
		}
		if out.ReadFrom[i] != want {
			t.Fatalf("pair %d: batch answered %d, controller %d", i, out.ReadFrom[i], want)
		}
	}

	// One bad pair fails the whole batch.
	resp, err = http.Post(ts.URL+"/route", "application/json",
		strings.NewReader(`[{"server":0,"object":1},{"server":999,"object":1}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bad pair: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/route", "application/json", strings.NewReader(`{"server":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-array body: status %d, want 400", resp.StatusCode)
	}
}

// pollEpochs long-polls GET /epochs once and decodes the response array.
func pollEpochs(t *testing.T, base string, since uint64, wait string) (int, []*online.Update) {
	t.Helper()
	url := fmt.Sprintf("%s/epochs?since=%d&wait=%s", base, since, wait)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var updates []*online.Update
	if err := json.NewDecoder(resp.Body).Decode(&updates); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, updates
}

func TestEpochsLongPoll(t *testing.T) {
	testutil.LeakCheck(t)
	ctrl, ts := newTestServer(t, 13, online.Config{})

	// since=0: one snapshot (the journal's origin is version 1's snapshot).
	code, updates := pollEpochs(t, ts.URL, 0, "1s")
	if code != http.StatusOK || len(updates) == 0 {
		t.Fatalf("cold poll: status %d, %d updates", code, len(updates))
	}
	if updates[0].Snapshot == nil {
		t.Fatalf("cold poll's first update is not a snapshot: %+v", updates[0])
	}
	last := updates[len(updates)-1].Version

	// Caught up: the window closes empty with 204.
	code, updates = pollEpochs(t, ts.URL, last, "50ms")
	if code != http.StatusNoContent || len(updates) != 0 {
		t.Fatalf("caught-up poll: status %d, %d updates, want 204", code, len(updates))
	}

	// A publish during the window wakes the parked poll.
	type res struct {
		code    int
		updates []*online.Update
	}
	ch := make(chan res, 1)
	go func() {
		code, u := pollEpochs(t, ts.URL, last, "10s")
		ch <- res{code, u}
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park
	if _, err := ctrl.ApplyDeltas([]online.Delta{{Kind: online.KindDemand, Server: 0, Object: 0, Reads: 77}}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-ch:
		if r.code != http.StatusOK || len(r.updates) != 1 {
			t.Fatalf("parked poll: status %d, %d updates", r.code, len(r.updates))
		}
		u := r.updates[0]
		if u.Version != last+1 || u.Diff == nil || u.Diff.From != last {
			t.Fatalf("parked poll update %+v, want diff %d->%d", u, last, last+1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked long-poll never woke on publish")
	}

	// Bad parameters.
	if code, _ := pollEpochs(t, ts.URL, 0, "nonsense"); code != http.StatusBadRequest {
		t.Fatalf("bad wait: status %d, want 400", code)
	}
	resp, err := http.Get(ts.URL + "/epochs?since=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since: status %d, want 400", resp.StatusCode)
	}
}

// Regression: wait=0 (and any negative duration) used to slip past the
// upper-bound clamp and turn the long poll into an instant-return busy loop.
// Non-positive windows are a client error now; small positive ones still work.
func TestEpochsWaitValidation(t *testing.T) {
	testutil.LeakCheck(t)
	_, ts := newTestServer(t, 19, online.Config{})

	code, updates := pollEpochs(t, ts.URL, 0, "1s")
	if code != http.StatusOK || len(updates) == 0 {
		t.Fatalf("cold poll: status %d, %d updates", code, len(updates))
	}
	last := updates[len(updates)-1].Version

	for _, wait := range []string{"0", "0s", "-1s", "-250ms"} {
		if code, _ := pollEpochs(t, ts.URL, last, wait); code != http.StatusBadRequest {
			t.Fatalf("wait=%s: status %d, want 400", wait, code)
		}
	}
	// The floor is strict positivity, not a minimum window: tiny waits stay
	// usable for tests and impatient pollers.
	if code, _ := pollEpochs(t, ts.URL, last, "1ms"); code != http.StatusNoContent {
		t.Fatalf("wait=1ms caught up: status %d, want 204", code)
	}
}

func TestEpochsSSEDrain(t *testing.T) {
	testutil.LeakCheck(t)
	ctrl, ts := newTestServer(t, 14, online.Config{})
	srv := tsHandler(t, ts)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/epochs?since=0&stream=sse", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("sse: status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	events := make(chan *online.Update, 16)
	scanErr := make(chan error, 1)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var u online.Update
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &u); err != nil {
				scanErr <- err
				return
			}
			events <- &u
		}
		// A clean end of stream is the closed events channel; sending its
		// nil error too would race the terminal event in next's select.
		if err := sc.Err(); err != nil {
			scanErr <- err
		}
	}()

	next := func() *online.Update {
		t.Helper()
		select {
		case u, ok := <-events:
			if !ok {
				t.Fatal("sse stream ended early")
			}
			return u
		case err := <-scanErr:
			t.Fatalf("sse scan: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("sse event timed out")
		}
		return nil
	}

	first := next()
	if first.Snapshot == nil {
		t.Fatalf("sse catch-up is not a snapshot: %+v", first)
	}
	if _, err := ctrl.ApplyDeltas([]online.Delta{{Kind: online.KindDemand, Server: 2, Object: 3, Reads: 55}}); err != nil {
		t.Fatal(err)
	}
	if u := next(); u.Version != first.Version+1 || u.Diff == nil {
		t.Fatalf("sse live update %+v, want diff version %d", u, first.Version+1)
	}

	// Drain: the stream must end with a terminal event, promptly.
	go srv.Drain()
	if u := next(); !u.Terminal {
		t.Fatalf("sse drain event %+v, want terminal", u)
	}
	select {
	case _, ok := <-events:
		if ok {
			t.Fatal("events after the terminal update")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sse stream did not close after terminal event")
	}
}

// tsHandler digs the *Server out of the test fixture; newTestServer hands
// back the httptest server whose Handler is ours.
func tsHandler(t *testing.T, ts *httptest.Server) *Server {
	t.Helper()
	s, ok := ts.Config.Handler.(*Server)
	if !ok {
		t.Fatalf("test server handler is %T", ts.Config.Handler)
	}
	return s
}
