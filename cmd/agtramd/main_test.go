package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
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
