package agtram

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/candidates"
	"repro/internal/faultnet"
	"repro/internal/frame"
	"repro/internal/mechanism"
	"repro/internal/replication"
)

// The message-passing engines (SolveDistributed, SolveNetwork, SolveTCP)
// play one game: the mechanism loop play and the agent loop playAgent,
// joined by one link per agent. The entire exchange per round is M small
// bids up and one award down — the "central body only takes a binary
// decision" property of Section 1. Only the link differs: a channel pair in
// process, or one internal/frame frame per message over a net.Conn.

// msg is the one game message. As a hello (agent to mechanism), Server
// names the agent the connection speaks for. As a bid, Object and Value
// are the agent's dominant valuation, or Done reports that it has no
// beneficial candidate left and leaves the game (Figure 2, line 18); the
// bidder is the link the bid arrives on, never a field. As an award,
// Object was placed on Server and the winner is paid Value; Done ends the
// game.
type msg struct {
	Object int32
	Server int32
	Value  int64
	Done   bool
}

// msgLen is a message's fixed body on the wire: object, server, value and
// a done byte, big-endian.
const msgLen = 4 + 4 + 8 + 1

func (m msg) appendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(m.Object))
	b = binary.BigEndian.AppendUint32(b, uint32(m.Server))
	b = binary.BigEndian.AppendUint64(b, uint64(m.Value))
	if m.Done {
		return append(b, 1)
	}
	return append(b, 0)
}

func decodeMsg(b []byte) (msg, error) {
	if len(b) != msgLen {
		return msg{}, fmt.Errorf("agtram: message body of %d bytes, want %d", len(b), msgLen)
	}
	if b[16] > 1 {
		return msg{}, fmt.Errorf("agtram: message done byte %d, want 0 or 1", b[16])
	}
	return msg{
		Object: int32(binary.BigEndian.Uint32(b)),
		Server: int32(binary.BigEndian.Uint32(b[4:])),
		Value:  int64(binary.BigEndian.Uint64(b[8:])),
		Done:   b[16] == 1,
	}, nil
}

// readMsg reads one message frame. A length prefix longer than one message
// is rejected before any of the frame's body is read.
func readMsg(r io.Reader, buf *[]byte) (msg, error) {
	f, _, err := frame.Read(r, buf, frame.Envelope+msgLen)
	if err != nil {
		return msg{}, err
	}
	return decodeMsg(f.Body)
}

// link is one agent's connection to the mechanism, seen from either end.
type link interface {
	send(msg) error
	recv() (msg, error)
	close()
}

var errLinkClosed = errors.New("agtram: link closed")

// chanLink is one end of an in-process link: a channel each way, each
// holding the one message a round puts in flight. Only the mechanism end
// closes, and only its outgoing channel: an agent end that closed after
// its leave message would race the mechanism's read of it.
type chanLink struct {
	in   <-chan msg
	out  chan<- msg
	once *sync.Once // nil on the agent end
}

func newChanLinks() (mech, agent link) {
	up, down := make(chan msg, 1), make(chan msg, 1)
	return &chanLink{in: up, out: down, once: new(sync.Once)}, &chanLink{in: down, out: up}
}

func (l *chanLink) send(m msg) error {
	l.out <- m
	return nil
}

func (l *chanLink) recv() (msg, error) {
	m, ok := <-l.in
	if !ok {
		return msg{}, errLinkClosed
	}
	return m, nil
}

func (l *chanLink) close() {
	if l.once != nil {
		l.once.Do(func() { close(l.out) })
	}
}

// connLink is a link over a net.Conn, one frame per message. A positive
// timeout bounds every read and write (Config.RoundTimeout on the
// mechanism end). The conn closes when ctx fires, which unblocks any read
// or write in flight.
type connLink struct {
	conn    net.Conn
	r       *bufio.Reader // sized to one frame: its prefix and body in one read of the conn
	timeout time.Duration
	stop    func() bool // unregisters the ctx watcher
	rbuf    []byte
	wbuf    []byte
}

func newConnLink(ctx context.Context, conn net.Conn, timeout time.Duration) *connLink {
	return &connLink{
		conn:    conn,
		r:       bufio.NewReaderSize(conn, 4+frame.Envelope+msgLen),
		timeout: timeout,
		stop:    context.AfterFunc(ctx, func() { conn.Close() }),
	}
}

func (l *connLink) send(m msg) error {
	if l.timeout > 0 {
		l.conn.SetWriteDeadline(time.Now().Add(l.timeout))
	}
	// Neither call can fail: the method is empty and the frame is 35 bytes.
	b, _ := frame.Begin(l.wbuf, 0, "", "")
	b, _ = frame.Seal(m.appendTo(b))
	l.wbuf = b
	_, err := l.conn.Write(b)
	return err
}

func (l *connLink) recv() (msg, error) {
	if l.timeout > 0 {
		l.conn.SetReadDeadline(time.Now().Add(l.timeout))
	}
	return readMsg(l.r, &l.rbuf)
}

func (l *connLink) close() {
	l.stop()
	l.conn.Close()
}

// game is one run of the mechanism over message-passing links.
type game struct {
	cfg Config
	res *Result
}

func newGame(ctx context.Context, p *replication.Problem, cfg Config) (*game, error) {
	if p == nil {
		return nil, fmt.Errorf("agtram: nil problem")
	}
	if cfg.Valuation == ExactDelta {
		return nil, fmt.Errorf("agtram: exact-delta valuation needs global state and cannot run distributed")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("agtram: %w", err)
	}
	return &game{cfg: cfg, res: &Result{Schema: p.NewSchema(), Payments: make([]int64, p.M)}}, nil
}

func (g *game) evict(agent, round int, reason string) {
	ev := Eviction{Agent: agent, Round: round, Reason: reason}
	g.res.Evictions = append(g.res.Evictions, ev)
	if g.cfg.OnEvict != nil {
		g.cfg.OnEvict(ev)
	}
}

// peer is one agent as the mechanism sees it.
type peer struct {
	id   int
	link link
}

// play runs the central mechanism of Figure 2 over one link per agent, in
// server order: each round it reads one bid per live link, takes the
// single binary decision, and broadcasts the award. A link that fails,
// misses its deadline, or bids for a placement the schema cannot take is
// evicted, and the auction continues over the remaining bidders. ctx is
// checked at the top of every round. play closes every link before it
// returns.
func (g *game) play(ctx context.Context, peers []peer) (*Result, error) {
	defer func() {
		for _, pe := range peers {
			pe.link.close()
		}
	}()
	cfg, res := g.cfg, g.res
	drop := func(pe peer, round int, reason string) {
		g.evict(pe.id, round, reason)
		pe.link.close()
	}
	live := append([]peer(nil), peers...)
	bids := make([]mechanism.Bid, 0, len(live))
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("agtram: %w", err)
		}
		if len(live) == 0 {
			break
		}
		roundNo := res.Rounds + 1
		bids = bids[:0]
		n := 0
		for _, pe := range live {
			m, err := pe.link.recv()
			if err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return nil, fmt.Errorf("agtram: %w", cerr)
				}
				// Crashed, severed, truncated, or too slow.
				drop(pe, roundNo, fmt.Sprintf("reading bid: %v", err))
				continue
			}
			if m.Done {
				pe.link.close()
				continue
			}
			if err := res.Schema.CanPlace(m.Object, pe.id); err != nil {
				drop(pe, roundNo, fmt.Sprintf("infeasible bid: %v", err))
				continue
			}
			bids = append(bids, mechanism.Bid{Agent: pe.id, Item: m.Object, Value: m.Value})
			live[n] = pe
			n++
		}
		live = live[:n]
		if cfg.MaxRounds > 0 && res.Rounds >= cfg.MaxRounds {
			break
		}
		round, ok := mechanism.RunRound(bids, cfg.Payment)
		if !ok {
			break
		}
		winner := round.Winner
		if _, err := res.Schema.PlaceReplica(winner.Item, winner.Agent); err != nil {
			return nil, fmt.Errorf("agtram: placing the winning bid: %w", err)
		}
		alloc := Allocation{
			Round: res.Rounds, Object: winner.Item, Server: int32(winner.Agent),
			Value: winner.Value, Payment: round.Payment,
		}
		res.Allocations = append(res.Allocations, alloc)
		res.Payments[winner.Agent] += round.Payment
		res.Rounds++
		res.Valuations += int64(len(bids))
		if cfg.OnRound != nil {
			cfg.OnRound(alloc)
		}
		aw := msg{Object: winner.Item, Server: int32(winner.Agent), Value: round.Payment}
		n = 0
		for _, pe := range live {
			if err := pe.link.send(aw); err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return nil, fmt.Errorf("agtram: %w", cerr)
				}
				// A committed placement stands even if its winner dies
				// right after; the agent is simply out of the rest of the
				// game.
				drop(pe, roundNo, fmt.Sprintf("broadcasting award: %v", err))
				continue
			}
			live[n] = pe
			n++
		}
		live = live[:n]
	}
	// Every live agent has bid this round and awaits an award.
	for _, pe := range live {
		_ = pe.link.send(msg{Done: true}) // best effort: the game is over either way
	}
	return res, nil
}

// playAgent is the agent side of the game: purely local state, speaking
// only the message protocol. It bids, awaits the award, updates its state
// and repeats, until it leaves the game or the game ends. A positive
// crashRound makes the agent close its link at the start of that (1-based)
// round instead of bidding.
func playAgent(p *replication.Problem, a *candidates.Agent, l link, crashRound int) error {
	for round := 1; ; round++ {
		if round == crashRound {
			l.close()
			return fmt.Errorf("agtram: agent %d crashed at round %d (injected)", a.ID, round)
		}
		obj, val, ok := a.Best()
		if err := l.send(msg{Object: obj, Value: val, Done: !ok}); err != nil {
			return fmt.Errorf("agtram: sending bid: %w", err)
		}
		if !ok {
			return nil
		}
		aw, err := l.recv()
		if err != nil {
			return fmt.Errorf("agtram: reading award: %w", err)
		}
		if aw.Done {
			return nil
		}
		a.Apply(p, aw.Object, int(aw.Server))
	}
}

// solveLocal plays the game with every active agent as a goroutine of this
// process on the agent end of a link pair made by pair.
func solveLocal(ctx context.Context, p *replication.Problem, cfg Config, pair func(id int) (mech, agent link)) (*Result, error) {
	g, err := newGame(ctx, p, cfg)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	peers := make([]peer, 0, p.M)
	for _, a := range candidates.BuildAgents(p) {
		if cfg.Faults.DialFails(a.ID) {
			g.evict(a.ID, 0, "dial failed: injected unroutable host")
			continue
		}
		mech, agent := pair(a.ID)
		peers = append(peers, peer{id: a.ID, link: mech})
		crash := cfg.Faults.CrashRound(a.ID)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer agent.close()
			// The mechanism's reads decide evictions; an agent-side error
			// is the same failure seen from the other end.
			_ = playAgent(p, a, agent, crash)
		}()
	}
	return g.play(ctx, peers)
}

// SolveDistributed runs AGT-RAM with one goroutine per agent and the
// central mechanism, communicating only through channels. Agents keep
// purely local state (their candidate lists and NN caches); the mechanism
// keeps the schema. The allocation sequence is identical to Solve. No link
// can fail, so Config.Faults and Config.RoundTimeout do not apply.
//
// ctx is checked at the top of every round. On cancellation the mechanism
// closes every link, waits for every agent goroutine to exit, and returns
// ctx.Err() wrapped with the package name.
func SolveDistributed(ctx context.Context, p *replication.Problem, cfg Config) (*Result, error) {
	cfg.Faults = nil
	return solveLocal(ctx, p, cfg, func(int) (link, link) { return newChanLinks() })
}

// SolveNetwork runs the same game as SolveDistributed, but with every
// agent behind a real connection (net.Pipe) speaking the framed wire
// protocol — the shape of an actual deployment where the servers and the
// central body are separate processes. The allocation sequence is
// identical to Solve; the engine exists to exercise (and let tests verify)
// the wire protocol.
//
// Like SolveTCP, the engine honours Config.Faults and Config.RoundTimeout
// (net.Pipe supports deadlines): an agent whose link breaks, whose frames
// arrive truncated, who crashes on schedule, or who misses a round deadline
// is evicted and the auction continues over the remaining bidders. With a
// nil fault config and no deadline hits the run is bit-identical to Solve.
//
// ctx is checked at the top of every round; because the mechanism can also
// be blocked on a synchronous pipe, every connection closes when ctx fires,
// and every agent goroutine exits before SolveNetwork returns ctx.Err()
// wrapped with the package name.
func SolveNetwork(ctx context.Context, p *replication.Problem, cfg Config) (*Result, error) {
	return solveLocal(ctx, p, cfg, func(id int) (link, link) {
		mside, aside := net.Pipe()
		return newConnLink(ctx, mside, cfg.RoundTimeout), newConnLink(ctx, faultnet.Wrap(aside, id, cfg.Faults), 0)
	})
}
