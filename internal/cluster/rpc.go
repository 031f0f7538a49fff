// Package cluster shards one DRP instance across daemons: a coordinator
// partitions the servers into communication-cost regions (hierarchy's
// partitioner), masks its mirror's state to each region's members, ships
// it to a shard daemon over a small length-prefixed RPC transport, runs the
// regional AGT-RAM games concurrently, and merges the regional placements,
// their union followed by a boundary-replica exchange: the paper's
// semi-distributed mechanism stretched over processes. Every daemon speaks
// the mirror's server and object ids, and a coordinator and its shards
// must run the same build: the codecs encode this package's request and
// reply structs, whose fields change between builds.
//
// The layer cake, bottom to top:
//
//   - rpc.go: the transport. internal/frame's length-prefixed frames, whose
//     hand-encoded envelope (id, method, error) wraps a gob- or
//     JSON-encoded body; a synchronous Client with lazy redial and an
//     Endpoint dispatching registered handlers, one goroutine per
//     connection. Read and write buffers are owned per client / per
//     connection and reused across calls — the control plane's frames never
//     allocate in steady state beyond the codec's own work. Dialers compose
//     with internal/faultnet, so the fault matrix drives the same
//     deterministic fault model as the engine tests.
//   - membership.go: static seed list + health probes with a consecutive-
//     failure threshold (Alive → Suspect → Dead, probes recover the peer),
//     and fanOut, the one "call each listed peer concurrently under a
//     timeout, then collect in peer order" helper: probes, assignments,
//     delta forwards, solves and status pulls all run on it.
//   - shard.go: one regional game. Holds an online.Controller over the
//     masked region the coordinator assigned, reading the shared cost
//     oracle directly, beside the region itself, an immutable value that
//     carries its members; installs the assignment's carry on the fresh
//     controller before publishing it; degrades to autonomous self-solves
//     when the coordinator stops answering probes. The self-solves run on
//     online.SolveLoop, like the coordinator's drift-triggered solves and
//     re-partitions and the single daemon's solves.
//   - coordinator.go: membership + partition + mask + delta forwarding +
//     the fan-out solve and the union merge, behind the same
//     server.Backend interface the single daemon serves HTTP from.
//     Forwarding follows one rule: demand and membership deltas go to the
//     region that owns their server, a remove-object to every region, and
//     what no live region owns (add-object, a new server id)
//     re-partitions. A cluster solve is one round trip per shard: the
//     solve reply carries the region's border ads (every surplus replica
//     it placed, once; primaries are implicit) and its payments, and the
//     merge bounds each reply once and runs on the bounded ads. Every
//     shard RPC goes through forward, one failure policy: a failed call is
//     counted as a forward error, reported to the failure detector and
//     re-synced by a re-partition, and a region whose solve failed
//     contributes nothing to that merge. A multi-region merge whose
//     bounded ads equal the previous merge's, under the same generation
//     with the mirror unmoved, publishes nothing. Every reply carries only
//     what its caller reads: a ping, an assignment or a delta forward is
//     judged by its reply arriving.
//
// Determinism boundary: regional games are deterministic in (region, seed)
// exactly like the single daemon; the merge — including the boundary
// exchange's sorted ad ordering — is deterministic in the assignment
// generation, the mirror's epoch and the regions' bounded ads. Membership
// timing (when a probe declares a peer dead) is wall-clock and therefore
// not deterministic — tests pin it by calling ProbeOnce/AssignNow/SolveNow
// explicitly instead of running the background loops.
package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultnet"
	"repro/internal/frame"
)

// Codec selects the frame payload encoding. Gob is the compact default for
// daemon-to-daemon links; JSON keeps frames greppable for debugging.
type Codec string

// The two codecs.
const (
	CodecGob  Codec = "gob"
	CodecJSON Codec = "json"
)

// ParseCodec validates a -codec flag value ("" means gob).
func ParseCodec(s string) (Codec, error) {
	switch Codec(s) {
	case "", CodecGob:
		return CodecGob, nil
	case CodecJSON:
		return CodecJSON, nil
	default:
		return "", fmt.Errorf("cluster: unknown codec %q (want gob|json)", s)
	}
}

func (c Codec) unmarshal(b []byte, v any) error {
	if c == CodecJSON {
		return json.Unmarshal(b, v)
	}
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// appendFrame builds one framed message into buf (reusing its capacity),
// encoding v straight into the frame's body, and returns the full frame
// including the length prefix. Errors are encode/size-only — nothing has
// touched the wire, so the caller can still send a replacement frame on
// the same connection.
func appendFrame(buf []byte, c Codec, id uint64, method, errMsg string, v any) ([]byte, error) {
	b, err := frame.Begin(buf, id, method, errMsg)
	if err != nil {
		return b, fmt.Errorf("cluster: %w", err)
	}
	if v != nil {
		w := bytes.NewBuffer(b) // the codec appends straight into the frame
		if c == CodecJSON {
			err = json.NewEncoder(w).Encode(v)
		} else {
			err = gob.NewEncoder(w).Encode(v)
		}
		if err != nil {
			return b[:0], fmt.Errorf("cluster: encode frame body: %w", err)
		}
		b = w.Bytes()
	}
	if b, err = frame.Seal(b); err != nil {
		return b, fmt.Errorf("cluster: %w", err)
	}
	return b, nil
}

// RemoteError is a handler failure that crossed the wire: the call reached
// the peer and the peer's handler said no. Transport failures (dial, broken
// connection, deadline) surface as ordinary errors instead, which is how
// callers distinguish "peer rejected it" from "peer unreachable".
type RemoteError struct {
	Method string
	Msg    string
}

func (e *RemoteError) Error() string { return fmt.Sprintf("cluster: %s: %s", e.Method, e.Msg) }

// DialFunc opens a connection to an RPC address.
type DialFunc func(ctx context.Context, addr string) (net.Conn, error)

// NetDialer is the plain TCP dialer.
func NetDialer() DialFunc {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
}

// FaultyDialer wraps the TCP dialer with the faultnet schedule for one peer
// id: FailDial refuses the connect outright, Drop/Delay/Truncate shape the
// write path of every connection — the cluster fault matrix runs on the same
// deterministic fault model as the engine tests. A nil config is fault-free.
func FaultyDialer(cfg *faultnet.Config, peer int) DialFunc {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		if cfg.DialFails(peer) {
			return nil, fmt.Errorf("cluster: injected dial failure to peer %d (%s)", peer, addr)
		}
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return faultnet.Wrap(conn, peer, cfg), nil
	}
}

// Client is a synchronous RPC client over one connection: calls are
// serialized (the cluster's control plane is low-rate; concurrency comes
// from one client per peer), the connection is dialed lazily and redialed
// after any transport error. The frame buffers are owned by the client and
// reused across calls under the same serialization.
type Client struct {
	addr  string
	codec Codec
	dial  DialFunc

	mu     sync.Mutex
	conn   net.Conn
	nextID uint64
	wbuf   []byte
	rbuf   []byte

	sent atomic.Uint64
	recv atomic.Uint64
}

// NewClient builds a client for one peer address. A nil dial uses plain TCP.
func NewClient(addr string, codec Codec, dial DialFunc) *Client {
	if dial == nil {
		dial = NetDialer()
	}
	return &Client{addr: addr, codec: codec, dial: dial}
}

// Addr returns the peer address the client dials.
func (c *Client) Addr() string { return c.addr }

// WireBytes reports the cumulative bytes this client has sent and received,
// frames included — the per-phase benchmark's wire-cost column.
func (c *Client) WireBytes() (sent, recv uint64) {
	return c.sent.Load(), c.recv.Load()
}

// Call invokes method on the peer: req is encoded into the request body,
// the response body decoded into resp (ignored when resp is nil). The
// context's deadline bounds the whole exchange; transport errors close the
// connection so the next call redials.
func (c *Client) Call(ctx context.Context, method string, req, resp any) error {
	c.mu.Lock()
	defer c.mu.Unlock()

	if c.conn == nil {
		conn, err := c.dial(ctx, c.addr)
		if err != nil {
			return fmt.Errorf("cluster: dial %s: %w", c.addr, err)
		}
		c.conn = conn
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Time{}
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		c.dropConn()
		return err
	}

	c.nextID++
	id := c.nextID
	b, err := appendFrame(c.wbuf, c.codec, id, method, "", req)
	c.wbuf = b
	if err != nil {
		return fmt.Errorf("cluster: encode %s request: %w", method, err)
	}
	if _, err := c.conn.Write(b); err != nil {
		c.dropConn()
		return fmt.Errorf("cluster: send %s to %s: %w", method, c.addr, err)
	}
	c.sent.Add(uint64(len(b)))
	f, nr, err := frame.Read(c.conn, &c.rbuf, frame.Max)
	c.recv.Add(uint64(nr))
	if err != nil {
		c.dropConn()
		return fmt.Errorf("cluster: receive %s from %s: %w", method, c.addr, err)
	}
	if f.ID != id {
		c.dropConn()
		return fmt.Errorf("cluster: response id %d for request %d from %s", f.ID, id, c.addr)
	}
	if f.Err != "" {
		return &RemoteError{Method: method, Msg: f.Err}
	}
	if resp == nil {
		return nil
	}
	if err := c.codec.unmarshal(f.Body, resp); err != nil {
		return fmt.Errorf("cluster: decode %s response: %w", method, err)
	}
	return nil
}

func (c *Client) dropConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// Close drops the connection; a later Call redials.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropConn()
}

// Handler serves one RPC method: decode the request from body, return the
// response value (encoded by the endpoint) or an error (sent as a
// RemoteError to the caller).
type Handler func(ctx context.Context, body []byte) (any, error)

// Endpoint is the server side of the transport: a handler registry serving
// framed requests, one goroutine per accepted connection, requests on one
// connection handled in order (each Client is synchronous anyway).
type Endpoint struct {
	codec    Codec
	handlers map[string]Handler

	mu      sync.Mutex
	lis     net.Listener
	conns   map[net.Conn]struct{}
	closed  bool
	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// NewEndpoint builds an endpoint with no handlers registered.
func NewEndpoint(codec Codec) *Endpoint {
	ctx, cancel := context.WithCancel(context.Background())
	return &Endpoint{
		codec:    codec,
		handlers: map[string]Handler{},
		conns:    map[net.Conn]struct{}{},
		baseCtx:  ctx,
		cancel:   cancel,
	}
}

// Handle registers a method handler. Must be called before Serve.
func (e *Endpoint) Handle(method string, h Handler) { e.handlers[method] = h }

// HandleFunc registers a handler with typed request/response decoding: the
// endpoint decodes the request into a fresh Req and encodes whatever the
// handler returns.
func HandleFunc[Req any](e *Endpoint, method string, h func(ctx context.Context, req *Req) (any, error)) {
	e.Handle(method, func(ctx context.Context, body []byte) (any, error) {
		req := new(Req)
		if err := e.codec.unmarshal(body, req); err != nil {
			return nil, fmt.Errorf("decode %s request: %w", method, err)
		}
		return h(ctx, req)
	})
}

// Serve starts accepting on lis and returns immediately; Close stops the
// accept loop, closes every connection and waits for the per-connection
// goroutines (LeakCheck-clean teardown).
func (e *Endpoint) Serve(lis net.Listener) {
	e.mu.Lock()
	e.lis = lis
	e.mu.Unlock()
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			e.mu.Lock()
			if e.closed {
				e.mu.Unlock()
				conn.Close()
				return
			}
			e.conns[conn] = struct{}{}
			e.mu.Unlock()
			e.wg.Add(1)
			go e.serveConn(conn)
		}
	}()
}

// Addr returns the listening address (host:port with the resolved port).
func (e *Endpoint) Addr() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lis == nil {
		return ""
	}
	return e.lis.Addr().String()
}

func (e *Endpoint) serveConn(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		conn.Close()
		e.mu.Lock()
		delete(e.conns, conn)
		e.mu.Unlock()
	}()
	var rbuf, wbuf []byte // reused across this connection's frames
	for {
		req, _, err := frame.Read(conn, &rbuf, frame.Max)
		if err != nil {
			return
		}
		var v any
		var errMsg string
		if h, ok := e.handlers[req.Method]; !ok {
			errMsg = fmt.Sprintf("unknown method %q", req.Method)
		} else if r, herr := h(e.baseCtx, req.Body); herr != nil {
			errMsg = herr.Error()
		} else {
			v = r
		}
		b, aerr := appendFrame(wbuf, e.codec, req.ID, "", errMsg, v)
		wbuf = b
		if aerr != nil {
			// Encode failures never touch the wire, so the connection is
			// still in sync — report them to the caller as a remote error.
			b, aerr = appendFrame(wbuf, e.codec, req.ID, "", fmt.Sprintf("encode %s response: %v", req.Method, aerr), nil)
			wbuf = b
			if aerr != nil {
				return
			}
		}
		if _, err := conn.Write(b); err != nil {
			return
		}
	}
}

// Close stops the endpoint: the listener closes, in-flight handlers are
// canceled through their context, every connection is closed, and Close
// waits for all goroutines to exit. Idempotent.
func (e *Endpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	if e.lis != nil {
		e.lis.Close()
	}
	for conn := range e.conns {
		conn.Close()
	}
	e.mu.Unlock()
	e.cancel()
	e.wg.Wait()
}

// errClosed reports endpoint-side rejections of work after Close.
var errClosed = errors.New("cluster: endpoint closed")
