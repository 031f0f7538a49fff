package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	_ "repro/internal/agtram" // register the agt-ram solver
	"repro/internal/cluster"
	"repro/internal/online"
	"repro/internal/testutil"
)

// TestWriteFileAtomicKeepsPreviousOnFailure: a snapshot write whose encode
// fails part-way must leave the previous snapshot byte-identical and no
// temporary file behind; a write that succeeds replaces it.
func TestWriteFileAtomicKeepsPreviousOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "place.json")
	previous := []byte("{\n  \"servers\": 4\n}\n")
	if err := os.WriteFile(path, previous, 0o644); err != nil {
		t.Fatal(err)
	}

	errEncode := errors.New("encode failed")
	err := writeFileAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "{\n  \"serv"); err != nil {
			return err
		}
		return errEncode
	})
	if !errors.Is(err, errEncode) {
		t.Fatalf("writeFileAtomic = %v, want the encode error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, previous) {
		t.Fatalf("failed write changed the snapshot to %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a failed write, want only the snapshot", len(entries))
	}

	next := []byte("{\n  \"servers\": 5\n}\n")
	if err := writeFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(next)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, next) {
		t.Fatalf("after a successful write the snapshot reads %q (%v), want %q", got, err, next)
	}
}

// TestWithPprofSharesListener: every role serves through withPprof, so -pprof
// adds /debug/pprof/ beside the API for the single daemon and both cluster
// roles alike, and without it the API answers every path.
func TestWithPprofSharesListener(t *testing.T) {
	api := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "api") })
	get := func(h http.Handler, path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Body.String()
	}
	on := withPprof(api, true)
	if body := get(on, "/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index with -pprof: %.80q", body)
	}
	if body := get(on, "/healthz"); body != "api" {
		t.Fatalf("API path with -pprof answered %q", body)
	}
	if body := get(withPprof(api, false), "/debug/pprof/"); body != "api" {
		t.Fatalf("without -pprof /debug/pprof/ answered %.80q, want the API", body)
	}
}

// freeAddr reserves a loopback address and releases it, for a listener the
// test starts later.
func freeAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

// TestCoordinatorWaitsForEveryShard starts the coordinator role while shard
// 1 is down and brings shard 1 up only after enough failed calls to
// declare it Dead. The first formation must wait for it, so the initial
// cluster solve covers both regions: each shard holds a region of the
// current generation and ran that solve, and waiting cost no failed
// forward.
func TestCoordinatorWaitsForEveryShard(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(7))
	ccfg := online.Config{Seed: 7}
	lis0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sh0 := cluster.NewShard(0, p.Cost, cluster.ShardConfig{Codec: cluster.CodecGob, Controller: ccfg})
	sh0.Serve(lis0)
	defer sh0.Close()
	addr1, httpAddr := freeAddr(t), freeAddr(t)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- runCoordinator(ctx, p, ccfg, clusterArgs{
			role: "coordinator", rpcAddr: "127.0.0.1:0", httpAddr: httpAddr,
			peers: sh0.Addr() + "," + addr1, codec: cluster.CodecGob, probeInterval: time.Hour,
		})
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("coordinator: %v", err)
		}
	}()

	// Attempts run once a second; two failed calls declare shard 1 Dead
	// (DeathThreshold 2).
	time.Sleep(2500 * time.Millisecond)
	lis1, err := net.Listen("tcp", addr1)
	if err != nil {
		t.Fatal(err)
	}
	sh1 := cluster.NewShard(1, p.Cost, cluster.ShardConfig{Codec: cluster.CodecGob, Controller: ccfg})
	sh1.Serve(lis1)
	defer sh1.Close()

	// The API serves only after the initial cluster solve.
	var st cluster.ClusterStatus
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get("http://" + httpAddr + "/cluster")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator API never answered: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("status lists %d shards, want 2", len(st.Shards))
	}
	if st.ForwardErrors != 0 {
		t.Fatalf("forming the cluster counted %d forward errors", st.ForwardErrors)
	}
	for _, row := range st.Shards {
		if row.Assign != st.AssignVersion || row.Metrics == nil || row.Metrics.SolvesRun != 1 {
			t.Fatalf("shard %d (%s, generation %d of %d, error %q) did not take part in the initial cluster solve",
				row.ID, row.State, row.Assign, st.AssignVersion, row.Error)
		}
	}
}

// TestRestoreLogsServedPlacement: a snapshot restored onto the instance the
// flags build is logged with the OTC and savings that instance serves, not
// the figures of the instance that wrote it (which here carried 100,000
// more reads).
func TestRestoreLogsServedPlacement(t *testing.T) {
	p := testutil.MustBuild(testutil.Small(7))
	writer, err := online.New(p.Cost, p.Work, p.Capacity, online.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if err := writer.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.ApplyDeltas([]online.Delta{{Kind: online.KindDemand, Server: 3, Object: 5, Reads: 100000}}); err != nil {
		t.Fatal(err)
	}
	rep := writer.Placement()
	path := filepath.Join(t.TempDir(), "place.json")
	if err := writeFileAtomic(path, rep.WriteJSON); err != nil {
		t.Fatal(err)
	}

	ctrl, err := online.New(p.Cost, p.Work, p.Capacity, online.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	var log bytes.Buffer
	logOut = &log
	defer func() { logOut = os.Stderr }()
	restored, err := restore(ctrl, path)
	if err != nil || !restored {
		t.Fatalf("restore = %v, %v", restored, err)
	}
	served := ctrl.Metrics()
	if served.OTC == rep.OTC {
		t.Fatalf("the restored instance serves the file's OTC %d; the check below would be vacuous", rep.OTC)
	}
	want := fmt.Sprintf("agtramd: restored placement from %s (OTC %d, %.2f%% savings)\n", path, served.OTC, served.Savings)
	if log.String() != want {
		t.Fatalf("restore logged %q, want %q", log.String(), want)
	}
}
