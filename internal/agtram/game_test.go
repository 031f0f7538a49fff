package agtram

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/frame"
)

// wireFrame frames body the way the game links do, under method.
func wireFrame(t *testing.T, method string, body []byte) []byte {
	t.Helper()
	b, err := frame.Begin(nil, 0, method, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err = frame.Seal(append(b, body...))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// readMsg accepts exactly one well-formed message per frame: a body of the
// wrong length or a done byte other than 0 or 1 is an error, and a frame
// longer than one message is refused by its prefix before any body is read.
func TestReadMsg(t *testing.T) {
	want := msg{Object: 5, Server: -1, Value: 1 << 40, Done: true}
	body := want.appendTo(nil)
	badDone := append([]byte(nil), body...)
	badDone[msgLen-1] = 2
	var hugePrefix [4]byte
	binary.BigEndian.PutUint32(hugePrefix[:], frame.Max)
	for _, tc := range []struct {
		name string
		wire []byte
		ok   bool
	}{
		{"message", wireFrame(t, "", body), true},
		{"short-body", wireFrame(t, "", body[:msgLen-1]), false},
		{"long-body", wireFrame(t, "", append(body, 0)), false},
		{"done-byte-2", wireFrame(t, "", badDone), false},
		{"rpc-frame", wireFrame(t, "solve", body), false},
		{"huge-prefix", hugePrefix[:], false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf []byte
			got, err := readMsg(bytes.NewReader(tc.wire), &buf)
			if !tc.ok {
				if err == nil {
					t.Fatalf("accepted %+v", got)
				}
				if len(tc.wire) > 4+frame.Envelope+msgLen && buf != nil {
					t.Fatalf("read the body of an oversize frame (%d bytes buffered)", cap(buf))
				}
				return
			}
			if err != nil || got != want {
				t.Fatalf("got %+v, %v; want %+v", got, err, want)
			}
		})
	}
}

// FuzzGameMsg feeds the wire engines' message decoder arbitrary bytes, both
// as a bare body (decodeMsg) and as a framed stream (readMsg): a body
// decodes iff it is 17 bytes with a done byte of 0 or 1, and then
// re-encodes to exactly itself; a stream ends in an error or in a message
// that survives an encode and decode, never a panic. Run with
// `go test -fuzz=FuzzGameMsg ./internal/agtram` to explore; the seed corpus
// runs on every plain `go test`.
func FuzzGameMsg(f *testing.F) {
	body := msg{Object: 5, Server: -1, Value: 1 << 40, Done: true}.appendTo(nil)
	frameOf := func(method string, body []byte) []byte {
		b, err := frame.Begin(nil, 7, method, "")
		if err != nil {
			f.Fatal(err)
		}
		if b, err = frame.Seal(append(b, body...)); err != nil {
			f.Fatal(err)
		}
		return b
	}
	badDone := append([]byte(nil), body...)
	badDone[msgLen-1] = 2
	f.Add(body)
	f.Add(frameOf("", body))
	f.Add(frameOf("", body[:msgLen-1]))
	f.Add(frameOf("", badDone))
	f.Add(frameOf("solve", body))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, wire []byte) {
		m, err := decodeMsg(wire)
		if ok := len(wire) == msgLen && wire[msgLen-1] <= 1; (err == nil) != ok {
			t.Fatalf("decodeMsg(%x) = %+v, %v", wire, m, err)
		}
		if err == nil && !bytes.Equal(m.appendTo(nil), wire) {
			t.Fatalf("decodeMsg(%x) = %+v, which encodes to %x", wire, m, m.appendTo(nil))
		}

		var buf []byte
		m, err = readMsg(bytes.NewReader(wire), &buf)
		if err != nil {
			return
		}
		if back, err := decodeMsg(m.appendTo(nil)); err != nil || back != m {
			t.Fatalf("read %+v, which decodes back as %+v, %v", m, back, err)
		}
	})
}
