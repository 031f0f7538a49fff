package frame

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"
)

// encode builds one frame the way every writer does: Begin, body, Seal.
func encode(t testing.TB, id uint64, method, errMsg string, body []byte) []byte {
	t.Helper()
	b, err := Begin(nil, id, method, errMsg)
	if err != nil {
		t.Fatal(err)
	}
	b, err = Seal(append(b, body...))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRoundTrip(t *testing.T) {
	var stream bytes.Buffer
	stream.Write(encode(t, 7, "echo", "", []byte("payload")))
	stream.Write(encode(t, 8, "", "handler exploded", nil))
	var buf []byte
	f, n, err := Read(&stream, &buf, Max)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 7 || f.Method != "echo" || f.Err != "" || string(f.Body) != "payload" || n != 4+Envelope+4+7 {
		t.Fatalf("first frame: %+v (%d bytes)", f, n)
	}
	f, _, err = Read(&stream, &buf, Max)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 8 || f.Method != "" || f.Err != "handler exploded" || len(f.Body) != 0 {
		t.Fatalf("second frame: %+v", f)
	}
	if _, _, err := Read(&stream, &buf, Max); err != io.EOF {
		t.Fatalf("read past the last frame: %v, want io.EOF", err)
	}
}

func TestBeginRejectsLongMethod(t *testing.T) {
	if _, err := Begin(nil, 1, strings.Repeat("m", 0x10000), ""); err == nil {
		t.Fatal("a method name longer than its 2-byte length field was accepted")
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	// Read side: a length prefix past the limit is rejected before any
	// allocation, so a hostile or corrupt peer cannot OOM the daemon.
	var buf bytes.Buffer
	binary.Write(&buf, binary.BigEndian, uint32(Max+1))
	var scratch []byte
	if _, _, err := Read(&buf, &scratch, Max); err == nil {
		t.Fatal("oversized frame length accepted")
	}
	if scratch != nil {
		t.Fatal("oversized frame length allocated a buffer")
	}
	// A caller's tighter limit applies the same way.
	buf.Reset()
	buf.Write(encode(t, 0, "", "", make([]byte, 18)))
	if _, _, err := Read(&buf, &scratch, Envelope+17); err == nil {
		t.Fatal("frame above the caller's limit accepted")
	}
	if scratch != nil {
		t.Fatal("frame above the caller's limit allocated a buffer")
	}
}

// A peer that sends a prefix claiming the maximum and then nothing must
// cost the reader what arrived, not what the prefix claimed.
func TestReadAllocatesOnlyWhatArrives(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], Max)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var scratch []byte
	_, _, err := Read(bytes.NewReader(hdr[:]), &scratch, Max)
	runtime.ReadMemStats(&after)
	if err != io.EOF {
		t.Fatalf("header then EOF: err = %v, want io.EOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a bare %d-byte prefix allocated %d bytes", Max, grew)
	}
}

// Bodies that arrive in pieces still land whole, across the growth steps.
func TestReadGrowsAcrossSteps(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 3*growStep/16+5)
	wire := encode(t, 3, "assign", "", body)
	scratch := make([]byte, 0, 100)
	f, n, err := Read(io.MultiReader(bytes.NewReader(wire[:1000]), bytes.NewReader(wire[1000:])), &scratch, Max)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) || f.Method != "assign" || !bytes.Equal(f.Body, body) {
		t.Fatalf("grown read: %d of %d bytes, method %q, body intact %v", n, len(wire), f.Method, bytes.Equal(f.Body, body))
	}
}

// FuzzFrameDecode: any input either fails to decode or yields a frame
// whose re-encoding is exactly the bytes Read consumed. It never panics.
func FuzzFrameDecode(f *testing.F) {
	f.Add(encode(f, 42, "solve", "", []byte{0x1f, 0xff, 0x81, 0x03}))                       // an RPC request
	f.Add(encode(f, 42, "", "shard refused", nil))                                          // an RPC error response
	f.Add(encode(f, 0, "", "", []byte{0, 0, 0, 5, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 44, 0})) // a game message
	overrun := encode(f, 1, "m", "", nil)
	binary.BigEndian.PutUint16(overrun[12:], 0xfff0) // method length past the envelope
	f.Add(overrun)
	overrun = encode(f, 1, "", "e", nil)
	binary.BigEndian.PutUint32(overrun[14:], 0xfffffff0) // error length past the envelope
	f.Add(overrun)
	f.Add([]byte{0x10, 0x00, 0x00, 0x01})    // an oversize prefix
	f.Add([]byte{0x0f, 0xff, 0xff, 0xff, 0}) // a near-maximum prefix and one byte
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		fr, n, err := Read(bytes.NewReader(data), &buf, Max)
		if err != nil {
			return
		}
		b, err := Begin(nil, fr.ID, fr.Method, fr.Err)
		if err != nil {
			t.Fatalf("re-encode of a decoded frame: %v", err)
		}
		b, err = Seal(append(b, fr.Body...))
		if err != nil {
			t.Fatalf("re-seal of a decoded frame: %v", err)
		}
		if n > len(data) || !bytes.Equal(b, data[:n]) {
			t.Fatalf("re-encoding %x differs from the %d bytes consumed of %x", b, n, data)
		}
	})
}
