package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	_ "repro/internal/agtram" // register the agt-ram solver
	"repro/internal/online"
	"repro/internal/testutil"
	"repro/internal/trace"
)

func newTestServer(t testing.TB, seed int64, cfg online.Config) (*online.Controller, *httptest.Server) {
	t.Helper()
	p := testutil.MustBuild(testutil.Small(seed))
	ctrl, err := online.New(p.Cost, p.Work, p.Capacity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(ctrl))
	t.Cleanup(ts.Close)
	return ctrl, ts
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

func TestRouteEndpoint(t *testing.T) {
	ctrl, ts := newTestServer(t, 1, online.Config{})
	var out struct {
		Server   int   `json:"server"`
		Object   int32 `json:"object"`
		ReadFrom int32 `json:"read_from"`
	}
	resp := getJSON(t, ts.URL+"/route?server=3&object=7", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want, err := ctrl.Route(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if out.ReadFrom != want {
		t.Fatalf("read_from %d != controller answer %d", out.ReadFrom, want)
	}

	for _, bad := range []string{
		"/route?server=3",             // missing object
		"/route?server=x&object=1",    // non-numeric
		"/route?server=3&object=1e9",  // not an int
		"/route?server=-1&object=1",   // negative is parsed, then 404s
		"/route?server=999&object=1",  // out of range
		"/route?server=3&object=9999", // object out of range
	} {
		resp := getJSON(t, ts.URL+bad, nil)
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 400/404", bad, resp.StatusCode)
		}
	}
}

func TestPlacementAndHealthz(t *testing.T) {
	ctrl, ts := newTestServer(t, 2, online.Config{})
	var rep struct {
		Servers int   `json:"servers"`
		OTC     int64 `json:"otc"`
	}
	if resp := getJSON(t, ts.URL+"/placement", &rep); resp.StatusCode != http.StatusOK {
		t.Fatalf("placement status %d", resp.StatusCode)
	}
	if got := ctrl.Placement(); rep.Servers != got.Servers || rep.OTC != got.OTC {
		t.Fatalf("placement over HTTP %+v != controller %+v", rep, got)
	}
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestDeltasJSONAndSolve(t *testing.T) {
	ctrl, ts := newTestServer(t, 3, online.Config{})
	body := `[{"kind":"demand","server":1,"object":4,"reads":9000},
	          {"kind":"demand","server":2,"object":4,"reads":9000}]`
	resp, err := http.Post(ts.URL+"/deltas", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var applied online.Applied
	if err := json.NewDecoder(resp.Body).Decode(&applied); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || applied.Applied != 2 {
		t.Fatalf("status %d applied %+v", resp.StatusCode, applied)
	}

	resp, err = http.Post(ts.URL+"/solve", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	if m := ctrl.Metrics(); m.SolvesRun != 1 || m.Replicas == 0 {
		t.Fatalf("solve did not land: %+v", m)
	}

	// Batch atomicity over HTTP: one bad delta rejects the whole batch.
	before := ctrl.Metrics().Version
	resp, err = http.Post(ts.URL+"/deltas", "application/json",
		strings.NewReader(`[{"kind":"demand","server":0,"object":0,"reads":1},{"kind":"nope"}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch status %d, want 400", resp.StatusCode)
	}
	if got := ctrl.Metrics().Version; got != before {
		t.Fatalf("rejected batch advanced the version %d -> %d", before, got)
	}
}

// TestDeltasJSONBody drives the JSON body through the handler's read: a
// chunked body with no Content-Length decodes, a body past maxBody is a 400
// that leaves the epoch alone, and neither the read nor the decode
// allocates more for more deltas.
func TestDeltasJSONBody(t *testing.T) {
	ctrl, ts := newTestServer(t, 3, online.Config{})
	body := `[{"kind":"demand","server":1,"object":4,"reads":9000}]`
	// A reader net/http cannot measure: the client sends it chunked.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/deltas", struct{ io.Reader }{strings.NewReader(body)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var applied online.Applied
	if err := json.NewDecoder(resp.Body).Decode(&applied); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if req.ContentLength != 0 || resp.StatusCode != http.StatusOK || applied.Applied != 1 {
		t.Fatalf("chunked body: content length %d, status %d, applied %+v", req.ContentLength, resp.StatusCode, applied)
	}

	// A valid batch padded past the limit.
	before := ctrl.Metrics().Version
	big := body[:len(body)-1] + strings.Repeat(" ", maxBody) + "]"
	s := New(ctrl)
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/deltas", strings.NewReader(big)))
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "decode JSON deltas:") {
		t.Fatalf("over-limit body: status %d, body %s", rr.Code, rr.Body)
	}
	if got := ctrl.Metrics().Version; got != before {
		t.Fatalf("over-limit body advanced the version %d -> %d", before, got)
	}

	var allocs []float64
	for _, n := range []int{10, 10000} {
		ds := make([]online.Delta, n)
		for i := range ds {
			ds[i] = online.Delta{Kind: online.KindDemand, Server: i % 16, Object: int32(i % 60), Reads: 1}
		}
		b, err := json.Marshal(ds)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/deltas", bytes.NewReader(b))
		allocs = append(allocs, testing.AllocsPerRun(10, func() {
			if _, err := s.decodeDeltas(bytes.NewReader(b), req); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[1] > allocs[0] {
		t.Fatalf("decoding allocates %v times for 10 deltas but %v for 10,000", allocs[0], allocs[1])
	}
}

// validTraceLog builds a tiny valid trace whose objects fit the test
// instance.
func validTraceLog() *trace.Log {
	return &trace.Log{
		Objects: 10, Clients: 4,
		ObjectSizes: []int32{1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		Events: []trace.Event{
			{Time: 0, Client: 0, Object: 3, Size: 1},
			{Time: 1, Client: 1, Object: 3, Size: 1, Write: true},
			{Time: 2, Client: 2, Object: 7, Size: 1},
		},
	}
}

// validTraceBytes renders the log as a WCTR binary stream.
func validTraceBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := validTraceLog().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// validCLFBytes renders the log in the repo's CLF text form.
func validCLFBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := validTraceLog().WriteCLF(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDeltasTraceFormats(t *testing.T) {
	ctrl, ts := newTestServer(t, 4, online.Config{})
	resp, err := http.Post(ts.URL+"/deltas", "application/octet-stream",
		bytes.NewReader(validTraceBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	var applied online.Applied
	if err := json.NewDecoder(resp.Body).Decode(&applied); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || applied.Applied == 0 {
		t.Fatalf("binary trace: status %d applied %+v", resp.StatusCode, applied)
	}
	if ctrl.Metrics().DeltasApplied == 0 {
		t.Fatal("trace batch did not reach the controller")
	}

	// CLF text form.
	resp, err = http.Post(ts.URL+"/deltas?format=clf", "text/plain", bytes.NewReader(validCLFBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clf trace: status %d", resp.StatusCode)
	}

	// Unknown format.
	resp, err = http.Post(ts.URL+"/deltas?format=yaml", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d, want 400", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 5, online.Config{})
	for i := 0; i < 5; i++ {
		getJSON(t, fmt.Sprintf("%s/route?server=%d&object=%d", ts.URL, i, i), nil)
	}
	var m struct {
		RoutesServed int64 `json:"routes_served"`
		Latency      struct {
			N int `json:"N"`
		} `json:"route_latency_us"`
		Controller online.Metrics `json:"controller"`
	}
	if resp := getJSON(t, ts.URL+"/metrics", &m); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if m.RoutesServed != 5 || m.Controller.Version == 0 {
		t.Fatalf("metrics content: %+v", m)
	}
}

// FuzzDeltasDecoder throws arbitrary bytes at POST /deltas in all three
// encodings: the only acceptable outcomes are 200 and 400 — never a panic,
// never a partial state change on 400.
func FuzzDeltasDecoder(f *testing.F) {
	p := testutil.MustBuild(testutil.Small(6))
	ctrl, err := online.New(p.Cost, p.Work, p.Capacity, online.Config{})
	if err != nil {
		f.Fatal(err)
	}
	srv := New(ctrl)

	f.Add([]byte(`[{"kind":"demand","server":1,"object":2,"reads":10}]`), uint8(0))
	f.Add([]byte(`[]`), uint8(0))
	f.Add([]byte(`[{"kind":"server-leave","server":1}]`), uint8(0))
	f.Add([]byte(`{"kind":"demand"}`), uint8(0)) // object, not array
	f.Add([]byte(`[{"kind":"demand"}] trailing`), uint8(0))
	f.Add(validTraceBytes(f), uint8(1))
	f.Add([]byte("WCTR\x00\x00\x00\x00"), uint8(1))
	f.Add(validCLFBytes(f), uint8(2))
	f.Add([]byte("not a log line\n"), uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		url := "/deltas"
		ct := "application/json"
		switch mode % 3 {
		case 1:
			url, ct = "/deltas?format=trace", "application/octet-stream"
		case 2:
			url, ct = "/deltas?format=clf", "text/plain"
		}
		before := ctrl.Metrics()
		req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(data))
		req.Header.Set("Content-Type", ct)
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, req)
		switch rr.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			if after := ctrl.Metrics(); after.Version != before.Version {
				t.Fatalf("400 response advanced the version %d -> %d", before.Version, after.Version)
			}
		default:
			t.Fatalf("status %d, want 200 or 400 (body %q)", rr.Code, rr.Body.String())
		}
	})
}
