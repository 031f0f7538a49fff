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
