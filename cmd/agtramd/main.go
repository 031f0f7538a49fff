// Command agtramd runs the online replica-placement daemon: an HTTP service
// that routes reads against the live placement, absorbs workload deltas, and
// re-runs the configured solver when the placement drifts too far from what
// the mechanism last achieved.
//
// The instance flags (-M, -N, -capacity, ...) and the engine/fault flags
// (-engine, -round-timeout, -fault-*) are the same vocabulary cmd/agtram
// accepts, so an offline experiment's configuration carries onto the daemon
// unchanged.
//
// Endpoints:
//
//	GET  /route?server=i&object=k   nearest replica of k for server i (hot path, zero-alloc)
//	POST /route                     batch of {"server","object"} pairs, one epoch per batch
//	GET  /epochs?since=V            epoch stream: long-poll (&wait=5s) or SSE (&stream=sse)
//	GET  /placement                 full placement report (JSON, ETag/If-None-Match aware)
//	POST /deltas                    atomic delta batch (JSON array, WCTR or CLF trace)
//	POST /solve                     force a re-solve now
//	GET  /metrics                   controller + HTTP metrics
//	GET  /healthz                   liveness
//
// -scenario drives one of the built-in adversarial workloads (flash-crowd,
// diurnal, failures, rolling) against the live controller, one delta batch
// per -scenario-interval — a reproducible load generator for demos and
// soak tests, no external client needed.
//
// On SIGTERM/SIGINT the daemon first drains the epoch stream — every
// long-poll and SSE subscriber receives a terminal event so routing clients
// stop cleanly instead of reconnecting — then stops accepting requests, and
// — when -snapshot is set — persists the live placement as a JSON report
// that the next start restores instead of solving cold.
//
// Example:
//
//	agtramd -addr :8080 -M 64 -N 400 -drift 1.5 -debounce 2s -snapshot place.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/cmd/internal/cliflags"
	"repro/internal/cluster"
	"repro/internal/online"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/sim"
)

func main() {
	inst := cliflags.AddInstance(flag.CommandLine)
	eng := cliflags.AddEngine(flag.CommandLine)
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		method   = flag.String("method", "agt-ram", "solver run on drift: agt-ram|greedy|gra|ae-star|da|ea|glauber")
		drift    = flag.Float64("drift", 1.0, "drift threshold in percentage points of savings (<= 0 disables auto-solve)")
		debounce = flag.Duration("debounce", 2*time.Second, "minimum spacing between automatic re-solves")
		snapshot = flag.String("snapshot", "", "placement snapshot path: restored on start, written on shutdown")
		journal  = flag.Int("journal", online.DefaultJournal, "epoch-journal depth: placement diffs kept for GET /epochs replay before clients resync with a snapshot")
		warm     = flag.Bool("warm", false, "seed re-solves with the live placement instead of solving cold (less churn, timing-dependent placements)")
		debug    = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (profiling endpoints on the same listener)")

		scenarioName = flag.String("scenario", "", "drive a built-in adversarial workload against the live controller: "+strings.Join(sim.ScenarioNames(), "|")+" (empty disables)")
		scenarioTick = flag.Duration("scenario-interval", 2*time.Second, "spacing between -scenario delta batches")

		clusterRole = flag.String("cluster", "", "cluster role: coordinator|shard (empty runs the single daemon)")
		rpcAddr     = flag.String("rpc", ":9090", "cluster mode: RPC listen address for the inter-daemon plane")
		shardID     = flag.Int("shard", 0, "cluster shard mode: this shard's id (index into the coordinator's -peers list)")
		peers       = flag.String("peers", "", "cluster coordinator mode: comma-separated shard RPC addresses, shard i at position i")
		coordAddr   = flag.String("coordinator", "", "cluster shard mode: the coordinator's RPC address (empty runs the shard standalone-autonomous)")
		codecName   = flag.String("codec", "gob", "cluster mode: RPC frame codec, gob|json")
		probeEvery  = flag.Duration("probe-interval", 2*time.Second, "cluster mode: health-probe spacing for the failure detector")
	)
	flag.Parse()

	if !repro.KnownMethod(repro.Method(*method)) {
		fatal(fmt.Errorf("unknown -method %q", *method))
	}
	if *scenarioTick <= 0 {
		fatal(fmt.Errorf("-scenario-interval %v is not positive", *scenarioTick))
	}
	faults, err := eng.Validate()
	if err != nil {
		fatal(err)
	}
	if *warm && eng.Engine != "incremental" {
		fatal(fmt.Errorf("-warm requires -engine incremental (got %q)", eng.Engine))
	}

	in, err := repro.NewInstance(inst.Config())
	if err != nil {
		fatal(err)
	}
	p := in.Problem()
	var scenario sim.Generator
	if *scenarioName != "" {
		if scenario, err = sim.NewScenario(*scenarioName, sim.ShapeOf(p), inst.Seed); err != nil {
			fatal(err)
		}
	}
	ccfg := online.Config{
		Method:         *method,
		Engine:         engineOpt(*method, eng.Engine),
		Workers:        eng.Workers,
		Seed:           inst.Seed,
		RoundTimeout:   eng.RoundTimeout,
		GlauberSweeps:  eng.GlauberSweeps,
		Faults:         faults,
		DriftThreshold: *drift,
		SolveDebounce:  *debounce,
		WarmStart:      *warm,
		Journal:        *journal,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Cluster mode replaces the single controller with a regional shard or
	// the coordinating mirror; the same instance/engine/drift flags describe
	// the global game, so a single-daemon configuration lifts onto the
	// cluster unchanged.
	if *clusterRole != "" {
		codec, err := cluster.ParseCodec(*codecName)
		if err != nil {
			fatal(err)
		}
		if err := runClusterMode(ctx, p, ccfg, clusterArgs{
			role:          *clusterRole,
			rpcAddr:       *rpcAddr,
			httpAddr:      *addr,
			pprof:         *debug,
			shardID:       *shardID,
			peers:         *peers,
			coordinator:   *coordAddr,
			codec:         codec,
			probeInterval: *probeEvery,
			scenario:      scenario,
			scenarioTick:  *scenarioTick,
		}); err != nil {
			fatal(err)
		}
		return
	}

	ctrl, err := online.New(p.Cost, p.Work, p.Capacity, ccfg)
	if err != nil {
		fatal(err)
	}

	restored := false
	if *snapshot != "" {
		if restored, err = restore(ctrl, *snapshot); err != nil {
			fatal(err)
		}
	}
	if !restored {
		logf("initial solve (%s, M=%d N=%d)...", *method, p.M, p.N)
		if err := ctrl.SolveNow(ctx); err != nil {
			fatal(fmt.Errorf("initial solve: %w", err))
		}
		m := ctrl.Metrics()
		logf("solved: OTC %d, %.2f%% savings, %d replicas", m.OTC, m.Savings, m.Replicas)
	}
	ctrl.Start(ctx)
	if scenario != nil {
		driveScenario(ctx, scenario, *scenarioTick, ctrl.ApplyDeltas)
	}
	if err := serveHTTP(ctx, *addr, server.New(ctrl), "daemon", *debug); err != nil {
		fatal(err)
	}
	ctrl.Close()

	if *snapshot != "" {
		rep := ctrl.Placement()
		if err := writeFileAtomic(*snapshot, rep.WriteJSON); err != nil {
			fatal(fmt.Errorf("persisting placement: %w", err))
		}
		logf("persisted placement to %s (OTC %d, %d servers, %d objects)", *snapshot, rep.OTC, rep.Servers, rep.Objects)
	}
}

// restore installs the placement persisted at path on ctrl and logs the
// OTC and savings the restored epoch serves, which differ from the file's
// when the instance the flags build is not the one that wrote it. It
// reports false for a missing file, and logs and reports false for a
// snapshot that does not fit the instance (one written after
// shape-changing deltas such as add-object or server-join growth), so the
// daemon solves cold instead of refusing to start. Any other error opening
// the file is returned.
func restore(ctrl *online.Controller, path string) (bool, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	rep, err := replication.ReadPlacement(f)
	f.Close()
	if err == nil {
		err = ctrl.RestorePlacement(rep)
	}
	if err != nil {
		logf("ignoring snapshot %s, solving cold: %v", path, err)
		return false, nil
	}
	sch := ctrl.Current().Schema
	logf("restored placement from %s (OTC %d, %.2f%% savings)", path, sch.TotalCost(), sch.Savings())
	return true, nil
}

// driveScenario replays the generator's delta schedule against apply, one
// batch per tick — the same POST /deltas path, in-process — so
// drift-triggered re-solves, the epoch stream and routing clients can be
// exercised against a reproducible adversarial workload without an external
// load generator. apply is the single daemon's controller or the
// coordinator's forwarding plane.
func driveScenario(ctx context.Context, g sim.Generator, tick time.Duration, apply func([]online.Delta) (online.Applied, error)) {
	logf("driving scenario %s: %d ticks every %s", g.Name(), g.Ticks(), tick)
	go func() {
		t := time.NewTicker(tick)
		defer t.Stop()
		for i := 0; i < g.Ticks(); i++ {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			ds := g.Batch(i)
			if len(ds) == 0 {
				continue
			}
			if a, err := apply(ds); err != nil {
				logf("scenario %s tick %d: %v", g.Name(), i, err)
			} else {
				logf("scenario %s tick %d/%d: %d deltas -> epoch %d (drift %.2f)",
					g.Name(), i+1, g.Ticks(), len(ds), a.Version, a.Drift)
			}
		}
		logf("scenario %s complete", g.Name())
	}()
}

// serveHTTP runs the API server until ctx cancels, then drains the epoch
// stream and shuts down: the one HTTP lifecycle of every role. Shutdown only
// waits for idle connections, and a long-poll or SSE subscriber is never
// idle until its stream ends with a terminal event, so the drain runs inside
// the same window and turns those handlers into completed requests instead
// of casualties.
func serveHTTP(ctx context.Context, addr string, api *server.Server, role string, pprofOn bool) error {
	httpSrv := &http.Server{Addr: addr, Handler: withPprof(api, pprofOn)}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logf("%s HTTP API on %s", role, addr)
	select {
	case <-ctx.Done():
		logf("shutting down...")
	case err := <-errc:
		return err
	}
	api.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		logf("shutdown: %v", err)
	}
	return nil
}

// withPprof shares the service listener with the opt-in pprof endpoints: a
// mux claims /debug/pprof/ and hands everything else to the API handler.
func withPprof(api http.Handler, on bool) http.Handler {
	if !on {
		return api
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", api)
	logf("pprof endpoints enabled under /debug/pprof/")
	return mux
}

// writeFileAtomic replaces path with what write produces. It writes a
// temporary file in path's directory, syncs and closes it, then renames it
// over path, so a write that fails or is cut short by a crash leaves the
// previous file whole and the next start can still restore it.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // a second Close after a failed one is harmless
			os.Remove(f.Name())
		}
	}()
	if err := f.Chmod(0o644); err != nil {
		return err
	}
	if err := write(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// engineOpt maps the -engine flag onto solver options: only agt-ram has
// engines, every other method gets the empty default.
func engineOpt(method, engine string) string {
	if method == "agt-ram" {
		return engine
	}
	return ""
}

// logOut receives the daemon's log lines.
var logOut io.Writer = os.Stderr

func logf(format string, args ...any) {
	fmt.Fprintf(logOut, "agtramd: "+format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "agtramd:", err)
	os.Exit(1)
}
