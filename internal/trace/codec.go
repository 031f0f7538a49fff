package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Binary format:
//
//	magic    [4]byte  "WCTR"
//	version  uint16   1
//	objects  int32
//	clients  int32
//	events   int64
//	sizes    [objects]int32
//	events   [events]{time uint32, client int32, object int32, flags uint8}
//
// Event sizes are not stored (they are derivable from the catalogue).
// All integers are little-endian.

var binaryMagic = [4]byte{'W', 'C', 'T', 'R'}

const binaryVersion uint16 = 1

// WriteBinary serializes the log in the compact binary format.
func (l *Log) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	hdr := []interface{}{binaryVersion, l.Objects, l.Clients, int64(len(l.Events))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, l.ObjectSizes); err != nil {
		return err
	}
	var buf [13]byte
	for _, e := range l.Events {
		binary.LittleEndian.PutUint32(buf[0:], e.Time)
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.Client))
		binary.LittleEndian.PutUint32(buf[8:], uint32(e.Object))
		if e.Write {
			buf[12] = 1
		} else {
			buf[12] = 0
		}
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses a log previously written by WriteBinary.
func ReadBinary(r io.Reader) (*Log, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	l := &Log{}
	var nEvents int64
	if err := binary.Read(br, binary.LittleEndian, &l.Objects); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &l.Clients); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &nEvents); err != nil {
		return nil, err
	}
	if l.Objects < 0 || l.Clients < 0 || nEvents < 0 {
		return nil, fmt.Errorf("trace: negative counts in header: %d/%d/%d", l.Objects, l.Clients, nEvents)
	}
	if l.Objects > maxHeaderObjects || nEvents > maxHeaderEvents {
		return nil, fmt.Errorf("trace: header counts %d objects / %d events exceed limits %d / %d",
			l.Objects, nEvents, maxHeaderObjects, maxHeaderEvents)
	}
	l.ObjectSizes = make([]int32, l.Objects)
	if err := binary.Read(br, binary.LittleEndian, &l.ObjectSizes); err != nil {
		return nil, err
	}
	// Grow the event slice as bytes actually arrive, so a hostile header
	// cannot force a giant allocation up front.
	prealloc := nEvents
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	l.Events = make([]Event, 0, prealloc)
	var buf [13]byte
	for i := int64(0); i < nEvents; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("trace: reading event %d: %w", i, err)
		}
		obj := int32(binary.LittleEndian.Uint32(buf[8:]))
		if obj < 0 || obj >= l.Objects {
			return nil, fmt.Errorf("trace: event %d object %d out of range", i, obj)
		}
		l.Events = append(l.Events, Event{
			Time:   binary.LittleEndian.Uint32(buf[0:]),
			Client: int32(binary.LittleEndian.Uint32(buf[4:])),
			Object: obj,
			Size:   l.ObjectSizes[obj],
			Write:  buf[12] != 0,
		})
	}
	return l, nil
}

// Header limits keep a hostile stream from forcing huge allocations. The
// paper's scale (25k objects, 2M events) sits far below both.
const (
	maxHeaderObjects = 1 << 24
	maxHeaderEvents  = 1 << 31
)

// WriteCLF renders the trace in an Apache common-log-like text form, one
// line per event:
//
//	client<id> - - [<time>] "GET|POST /object/<id> HTTP/1.0" 200 <size>
//
// This mirrors the shape of the World Cup 1998 logs and exists so the
// parsing path (the paper's "we wrote a script that processed the logs")
// is exercised end to end.
func (l *Log) WriteCLF(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# objects=%d clients=%d\n", l.Objects, l.Clients); err != nil {
		return err
	}
	for k, s := range l.ObjectSizes {
		if _, err := fmt.Fprintf(bw, "# size %d %d\n", k, s); err != nil {
			return err
		}
	}
	for _, e := range l.Events {
		method := "GET"
		if e.Write {
			method = "POST"
		}
		if _, err := fmt.Fprintf(bw, "client%d - - [%d] \"%s /object/%d HTTP/1.0\" 200 %d\n",
			e.Client, e.Time, method, e.Object, e.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCLF parses the text form produced by WriteCLF.
func ReadCLF(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	l := &Log{}
	var sizes []int32
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			switch {
			case len(fields) >= 4 && fields[1] == "size":
				id, err1 := strconv.Atoi(fields[2])
				sz, err2 := strconv.Atoi(fields[3])
				// The id indexes the size table, so it is bounded like the
				// binary header's object count.
				if err1 != nil || err2 != nil || id < 0 || id >= maxHeaderObjects {
					return nil, fmt.Errorf("trace: bad size line %d: %q", lineNo, line)
				}
				for len(sizes) <= id {
					sizes = append(sizes, 0)
				}
				sizes[id] = int32(sz)
			case len(fields) >= 3 && strings.HasPrefix(fields[1], "objects="):
				n, err := strconv.Atoi(strings.TrimPrefix(fields[1], "objects="))
				if err != nil {
					return nil, fmt.Errorf("trace: bad header line %d: %q", lineNo, line)
				}
				l.Objects = int32(n)
				c, err := strconv.Atoi(strings.TrimPrefix(fields[2], "clients="))
				if err != nil {
					return nil, fmt.Errorf("trace: bad header line %d: %q", lineNo, line)
				}
				l.Clients = int32(c)
			}
			continue
		}
		e, err := parseCLFLine(line)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		l.Events = append(l.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	l.ObjectSizes = sizes
	if int32(len(sizes)) != l.Objects {
		return nil, fmt.Errorf("trace: header declared %d objects but %d sizes parsed", l.Objects, len(sizes))
	}
	return l, nil
}

func parseCLFLine(line string) (Event, error) {
	var e Event
	fields := strings.Fields(line)
	if len(fields) != 9 {
		return e, fmt.Errorf("expected 9 fields, got %d in %q", len(fields), line)
	}
	cli, err := strconv.Atoi(strings.TrimPrefix(fields[0], "client"))
	if err != nil {
		return e, fmt.Errorf("bad client field %q", fields[0])
	}
	ts, err := strconv.Atoi(strings.Trim(fields[3], "[]"))
	if err != nil {
		return e, fmt.Errorf("bad timestamp field %q", fields[3])
	}
	method := strings.TrimPrefix(fields[4], "\"")
	switch method {
	case "GET":
		e.Write = false
	case "POST":
		e.Write = true
	default:
		return e, fmt.Errorf("unknown method %q", method)
	}
	obj, err := strconv.Atoi(strings.TrimPrefix(fields[5], "/object/"))
	if err != nil {
		return e, fmt.Errorf("bad object field %q", fields[5])
	}
	sz, err := strconv.Atoi(fields[8])
	if err != nil {
		return e, fmt.Errorf("bad size field %q", fields[8])
	}
	e.Client = int32(cli)
	e.Time = uint32(ts)
	e.Object = int32(obj)
	e.Size = int32(sz)
	return e, nil
}
