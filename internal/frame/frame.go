// Package frame is the repository's one wire format: 4-byte big-endian
// length-prefixed frames around a small hand-encoded envelope. The
// cluster's RPC plane carries codec-encoded bodies on it, and the AGT-RAM
// wire engines carry one fixed-size game message per frame. Layout after
// the length prefix, which covers everything that follows:
//
//	8B id | 2B method len | method | 4B err len | err | body...
//
// The package is a leaf: it imports only the standard library.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Max bounds a single frame: a full M=100k state snapshot with dense
// demand fits comfortably; anything bigger is a protocol error, not a
// bigger buffer.
const Max = 256 << 20

// Envelope is the length of the smallest legal frame: empty method, error
// and body.
const Envelope = 8 + 2 + 4

// growStep is the smallest step a too-small read buffer grows by; larger
// frames grow it by doubling, always as far as the bytes that have arrived.
const growStep = 64 << 10

// Frame is one decoded frame. Method is set on requests; Err carries a
// remote failure on responses; Body is the payload, decoded by the
// receiver into its own types.
type Frame struct {
	ID     uint64
	Method string
	Err    string
	Body   []byte // sub-slice of the read buffer: valid until the next Read reuses it
}

// Begin starts a frame in buf, reusing its capacity: a length-prefix
// placeholder and the envelope. The caller appends the body straight into
// the returned slice and hands it to Seal, so a frame costs one buffer and
// one Write.
func Begin(buf []byte, id uint64, method, errMsg string) ([]byte, error) {
	if len(method) > 0xffff {
		return buf[:0], fmt.Errorf("frame: method name of %d bytes", len(method))
	}
	b := append(buf[:0], 0, 0, 0, 0)
	b = binary.BigEndian.AppendUint64(b, id)
	b = binary.BigEndian.AppendUint16(b, uint16(len(method)))
	b = append(b, method...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(errMsg)))
	return append(b, errMsg...), nil
}

// Seal writes the length prefix of a frame begun by Begin and returns the
// full frame. Its only error is a frame over Max; nothing has touched the
// wire, so the caller can still send a replacement frame.
func Seal(b []byte) ([]byte, error) {
	n := len(b) - 4
	if n > Max {
		return b[:0], fmt.Errorf("frame: %d bytes exceeds the %d limit", n, Max)
	}
	binary.BigEndian.PutUint32(b, uint32(n))
	return b, nil
}

// Read reads one frame from r into *buf (growing and reusing it across
// calls) and parses the envelope; n counts the bytes consumed. The
// returned Body aliases *buf, so the caller decodes it before the next
// Read on the same buffer.
//
// A length prefix above limit (callers pass at most Max) is rejected
// before any of the body is read. A buffer too small for the frame grows
// by at most max(growStep, the bytes already read) at a time as the body
// arrives, so a peer that sends only a large prefix costs the reader one
// step, not the size it claimed; a warm buffer reads the body with one
// ReadFull.
func Read(r io.Reader, buf *[]byte, limit int) (f Frame, n int, err error) {
	// The prefix lands in the caller's buffer when it has room: a local
	// array would escape through r and cost every warm read an allocation.
	hdr := *buf
	if cap(hdr) < 4 {
		hdr = make([]byte, 4)
	}
	hdr = hdr[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, 0, err
	}
	size := binary.BigEndian.Uint32(hdr)
	if int64(size) > int64(limit) {
		return Frame{}, 4, fmt.Errorf("frame: %d bytes exceeds the %d limit", size, limit)
	}
	if size < Envelope {
		return Frame{}, 4, fmt.Errorf("frame: %d bytes is below the %d-byte envelope", size, Envelope)
	}
	b := (*buf)[:0]
	for len(b) < int(size) {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(int(size)-len(b), max(len(b), growStep)))
		}
		k, err := io.ReadFull(r, b[len(b):min(int(size), cap(b))])
		b = b[:len(b)+k]
		if err != nil {
			return Frame{}, 4, err
		}
	}
	*buf = b
	f, err = parse(b)
	return f, 4 + len(b), err
}

// parse splits a frame body (prefix stripped) into its envelope fields.
func parse(b []byte) (Frame, error) {
	f := Frame{ID: binary.BigEndian.Uint64(b)}
	off := 8
	ml := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	if ml+4 > len(b)-off {
		return Frame{}, errors.New("frame: method field overruns the envelope")
	}
	f.Method = string(b[off : off+ml])
	off += ml
	el := binary.BigEndian.Uint32(b[off:])
	off += 4
	if int64(el) > int64(len(b)-off) {
		return Frame{}, errors.New("frame: error field overruns the envelope")
	}
	f.Err = string(b[off : off+int(el)])
	off += int(el)
	f.Body = b[off:]
	return f, nil
}
