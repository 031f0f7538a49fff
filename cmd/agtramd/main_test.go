package main

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
