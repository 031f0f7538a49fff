// Package server exposes the online controller over HTTP: lock-free routing
// on the hot path (single lookups zero-alloc, batches against one epoch),
// the epoch stream (long-poll and SSE) behind GET /epochs, batched workload
// deltas (JSON or trace streams), forced solves, versioned placement
// snapshots with ETag validation, and metrics. The handler is plain net/http.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/online"
	"repro/internal/stats"
	"repro/internal/trace"
)

// maxBody bounds delta payloads (JSON batches and trace streams) and batch
// route requests.
const maxBody = 32 << 20

// ringSize is the route-latency reservoir: the last ringSize observations,
// overwritten in arrival order. Power of two so the modulo is a mask.
const ringSize = 4096

// Backend is the controller surface the HTTP facade serves. The online
// controller implements it directly (the single-daemon case); the cluster
// coordinator wraps one to intercept delta batches (cross-shard forwarding)
// and solves (fan-out to regional games followed by the top-level merge)
// while serving routes and the epoch stream from its merged mirror.
type Backend interface {
	Current() *online.Epoch
	Route(server int, object int32) (int32, error)
	ApplyDeltas(ds []online.Delta) (online.Applied, error)
	SolveNow(ctx context.Context) error
	Metrics() online.Metrics
	Subscribe(since uint64, buf int) *online.Subscription
	Unsubscribe(sub *online.Subscription)
	DrainSubscribers()
}

// Server is the HTTP facade over one backend.
type Server struct {
	ctrl  Backend
	mux   *http.ServeMux
	start time.Time

	routes     atomic.Int64 // routes served (batch pairs each count)
	routeNanos [ringSize]atomic.Int64
}

// New wires the handler set for b.
func New(b Backend) *Server {
	s := &Server{ctrl: b, mux: http.NewServeMux(), start: time.Now()}
	s.mux.HandleFunc("GET /route", s.handleRoute)
	s.mux.HandleFunc("POST /route", s.handleRouteBatch)
	s.mux.HandleFunc("GET /epochs", s.handleEpochs)
	s.mux.HandleFunc("GET /placement", s.handlePlacement)
	s.mux.HandleFunc("POST /deltas", s.handleDeltas)
	s.mux.HandleFunc("POST /solve", s.handleSolve)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Extend registers an additional handler on the server's mux — the cluster
// roles add their GET /cluster status endpoint this way. Patterns follow
// net/http mux syntax ("GET /cluster"); registration must happen before the
// server starts taking requests.
func (s *Server) Extend(pattern string, h http.HandlerFunc) { s.mux.HandleFunc(pattern, h) }

// Drain ends every epoch subscription with a terminal event and refuses new
// ones, so in-flight long-poll and SSE handlers return promptly. The daemon
// calls it before http.Server.Shutdown: Shutdown waits for idle connections,
// and a subscriber parked on the stream is never idle until its stream ends.
func (s *Server) Drain() { s.ctrl.DrainSubscribers() }

// jsonCT is the shared Content-Type header value for the zero-alloc route
// path: assigning a package-level slice into the header map allocates
// nothing per request.
var jsonCT = []string{"application/json"}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonCT
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

var errRouteParams = errors.New("missing server= or object= query parameter")

// parseRouteQuery pulls server= and object= out of a raw query string
// without url.ParseQuery's per-request map. Values are decimal integers, so
// no unescaping is needed; unknown keys are ignored.
func parseRouteQuery(raw string) (server int, object int64, err error) {
	var haveS, haveO bool
	for raw != "" {
		var kv string
		kv, raw, _ = strings.Cut(raw, "&")
		k, v, _ := strings.Cut(kv, "=")
		switch k {
		case "server":
			if server, err = strconv.Atoi(v); err != nil {
				return 0, 0, fmt.Errorf("bad server: %w", err)
			}
			haveS = true
		case "object":
			if object, err = strconv.ParseInt(v, 10, 32); err != nil {
				return 0, 0, fmt.Errorf("bad object: %w", err)
			}
			haveO = true
		}
	}
	if !haveS || !haveO {
		return 0, 0, errRouteParams
	}
	return server, object, nil
}

// routeBufs recycles the small response buffers of the single-route path.
var routeBufs = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

// handleRoute answers "which server does server i read object k from". It
// reads one atomic pointer and allocates nothing on the happy path: the
// query is scanned in place, the response body is built in a pooled buffer
// with strconv, and the Content-Type header value is shared
// (TestRouteHandlerZeroAlloc pins this at 0 allocs/op).
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	srv, obj, err := parseRouteQuery(r.URL.RawQuery)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	from, err := s.ctrl.Route(srv, int32(obj))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	bp := routeBufs.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, `{"server":`...)
	b = strconv.AppendInt(b, int64(srv), 10)
	b = append(b, `,"object":`...)
	b = strconv.AppendInt(b, obj, 10)
	b = append(b, `,"read_from":`...)
	b = strconv.AppendInt(b, int64(from), 10)
	b = append(b, '}', '\n')
	w.Header()["Content-Type"] = jsonCT
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	*bp = b
	routeBufs.Put(bp)
	n := s.routes.Add(1)
	s.routeNanos[(n-1)&(ringSize-1)].Store(time.Since(t0).Nanoseconds())
}

// RoutePair is one lookup in a batch route request.
type RoutePair struct {
	Server int   `json:"server"`
	Object int32 `json:"object"`
}

// handleRouteBatch routes a JSON array of pairs in one request, every pair
// against the same epoch — a concurrent placement swap cannot tear the
// batch, and the response names the epoch version the answers belong to.
// Any invalid pair fails the whole batch.
func (s *Server) handleRouteBatch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var pairs []RoutePair
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&pairs); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode batch: %w", err))
		return
	}
	e := s.ctrl.Current()
	out := make([]int32, len(pairs))
	for i, p := range pairs {
		from, err := e.Route(p.Server, p.Object)
		if err != nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("pair %d: %w", i, err))
			return
		}
		out[i] = from
	}
	writeJSON(w, http.StatusOK, map[string]any{"version": e.Version, "read_from": out})
	n := s.routes.Add(int64(len(pairs)))
	s.routeNanos[(n-1)&(ringSize-1)].Store(time.Since(t0).Nanoseconds())
}

// handlePlacement serves the live placement with version validation: the
// response carries ETag "<version>" and X-Epoch-Version from a single epoch
// read (report and version can never disagree), and If-None-Match answers
// 304 when the caller's placement is still current.
func (s *Server) handlePlacement(w http.ResponseWriter, r *http.Request) {
	e := s.ctrl.Current()
	ver := strconv.FormatUint(e.Version, 10)
	etag := `"` + ver + `"`
	h := w.Header()
	h.Set("Etag", etag)
	h.Set("X-Epoch-Version", ver)
	if match := r.Header.Get("If-None-Match"); match == etag || match == "*" {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeJSON(w, http.StatusOK, e.Schema.Report())
}

// handleDeltas applies one atomic batch. Three encodings:
//
//   - JSON (default): a single JSON array of delta objects, read whole and
//     decoded by online.DecodeDeltas.
//   - binary trace ("WCTR"): Content-Type application/octet-stream or
//     ?format=trace — a trace.WriteBinary stream, aggregated into demand
//     deltas with the client-mod-M mapping.
//   - CLF: ?format=clf — a Common-Log-Format trace, same aggregation.
//
// Malformed input of any encoding is a 400; the controller state is never
// partially updated.
func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	ds, err := s.decodeDeltas(body, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.ctrl.ApplyDeltas(ds)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) decodeDeltas(body io.Reader, r *http.Request) ([]online.Delta, error) {
	format := r.URL.Query().Get("format")
	if format == "" {
		ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
		if ct == "application/octet-stream" {
			format = "trace"
		}
	}
	switch format {
	case "trace", "clf":
		var (
			l   *trace.Log
			err error
		)
		if format == "trace" {
			l, err = trace.ReadBinary(body)
		} else {
			l, err = trace.ReadCLF(body)
		}
		if err != nil {
			return nil, fmt.Errorf("decode %s stream: %w", format, err)
		}
		if err := l.Validate(); err != nil {
			return nil, fmt.Errorf("invalid trace: %w", err)
		}
		return online.DeltasFromEvents(l.Events, nil, s.ctrl.Current().Problem.M)
	case "", "json":
		// One read into one buffer, sized by a declared Content-Length; the
		// spare bytes.MinRead lets the read that meets EOF land without
		// growing it.
		var buf bytes.Buffer
		if n := r.ContentLength; n > 0 && n <= maxBody {
			buf.Grow(int(n) + bytes.MinRead)
		}
		if _, err := buf.ReadFrom(body); err != nil {
			return nil, fmt.Errorf("decode JSON deltas: %w", err)
		}
		ds, err := online.DecodeDeltas(buf.Bytes())
		if err != nil {
			return nil, fmt.Errorf("decode JSON deltas: %w", err)
		}
		return ds, nil
	default:
		return nil, fmt.Errorf("unknown format %q (want json|trace|clf)", format)
	}
}

// handleSolve forces a re-solve regardless of drift, synchronously.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if err := s.ctrl.SolveNow(r.Context()); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	m := s.ctrl.Metrics()
	writeJSON(w, http.StatusOK, map[string]any{
		"version": m.Version, "otc": m.OTC, "savings_percent": m.Savings,
		"replicas": m.Replicas, "solves_run": m.SolvesRun,
	})
}

// routeLatency summarizes the reservoir in microseconds.
func (s *Server) routeLatency() stats.Summary {
	n := s.routes.Load()
	if n > ringSize {
		n = ringSize
	}
	xs := make([]float64, 0, n)
	for i := int64(0); i < n; i++ {
		xs = append(xs, float64(s.routeNanos[i].Load())/1e3)
	}
	return stats.Summarize(xs)
}

// handleMetrics reports controller and server counters. The controller
// metrics come from one snapshot read, so the reported epoch version and
// placement economics always belong to the same epoch; X-Epoch-Version
// mirrors the body for scrapers that only look at headers.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.ctrl.Metrics()
	w.Header().Set("X-Epoch-Version", strconv.FormatUint(m.Version, 10))
	writeJSON(w, http.StatusOK, map[string]any{
		"controller":       m,
		"epoch_version":    m.Version,
		"routes_served":    s.routes.Load(),
		"route_latency_us": s.routeLatency(),
		"uptime_seconds":   time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
