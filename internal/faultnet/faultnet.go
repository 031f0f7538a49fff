// Package faultnet injects deterministic faults into net.Conn links for
// testing distributed protocols under failure: per-agent message drop
// (severing the link — on a reliable in-order stream a lost frame is
// indistinguishable from a broken connection), fixed delivery delay,
// crash-at-round schedules, refused dials and truncated frames.
//
// The package is a leaf: it depends only on the standard library and the
// deterministic RNG substrate, so both the engines (internal/agtram) and
// the registry options (internal/solver) can share one Config type without
// an import cycle. All randomness derives from Config.Seed and the agent
// id, so a fault schedule replays bit-for-bit.
package faultnet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/stats"
)

// Config describes the faults to inject into a set of agent links. A nil
// *Config (or the zero value) injects nothing — engines accept it on every
// path and the fault-free run stays bit-identical to the in-process solve.
//
// The *All fields apply to every agent; the per-agent maps override them
// for individual agents. Crash, dial-failure and truncation schedules are
// per-agent only, since they name a specific victim.
type Config struct {
	// Seed seeds the per-link RNGs (mixed with the agent id), making drop
	// schedules reproducible.
	Seed int64
	// DropAll is the probability, in [0,1], that any single write on an
	// agent's link severs the connection.
	DropAll float64
	// Drop overrides DropAll per agent id.
	Drop map[int]float64
	// DelayAll is slept before every write on every agent's link,
	// modelling a slow or congested path.
	DelayAll time.Duration
	// Delay overrides DelayAll per agent id.
	Delay map[int]time.Duration
	// CrashAtRound maps agent id -> the 1-based protocol round at whose
	// start the agent crashes: it closes its link instead of bidding.
	CrashAtRound map[int]int
	// FailDial marks agents whose dial/connect always fails, modelling an
	// unroutable host.
	FailDial map[int]bool
	// TruncateAfter maps agent id -> a byte budget: the link delivers
	// exactly that many bytes of the agent's output, then severs
	// mid-frame, leaving the reader a truncated length-prefixed frame.
	TruncateAfter map[int]int
}

// Enabled reports whether the config injects any fault at all. Nil-safe.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return c.DropAll > 0 || len(c.Drop) > 0 ||
		c.DelayAll > 0 || len(c.Delay) > 0 ||
		len(c.CrashAtRound) > 0 || len(c.FailDial) > 0 || len(c.TruncateAfter) > 0
}

// DropProb returns the per-write sever probability for the agent. Nil-safe.
func (c *Config) DropProb(agent int) float64 {
	if c == nil {
		return 0
	}
	if p, ok := c.Drop[agent]; ok {
		return p
	}
	return c.DropAll
}

// DelayFor returns the per-write delay for the agent. Nil-safe.
func (c *Config) DelayFor(agent int) time.Duration {
	if c == nil {
		return 0
	}
	if d, ok := c.Delay[agent]; ok {
		return d
	}
	return c.DelayAll
}

// CrashRound returns the 1-based round at which the agent crashes, or 0
// when it never does. Nil-safe.
func (c *Config) CrashRound(agent int) int {
	if c == nil {
		return 0
	}
	return c.CrashAtRound[agent]
}

// DialFails reports whether the agent's dial is scheduled to fail. Nil-safe.
func (c *Config) DialFails(agent int) bool {
	if c == nil {
		return false
	}
	return c.FailDial[agent]
}

// TruncateBudget returns the agent's delivery byte budget, if one is set.
// Nil-safe.
func (c *Config) TruncateBudget(agent int) (int, bool) {
	if c == nil {
		return 0, false
	}
	b, ok := c.TruncateAfter[agent]
	return b, ok
}

// wrapNeeded reports whether the agent's link needs a write-path wrapper.
// Crash/dial faults are enforced by the protocol loops, not the conn.
func (c *Config) wrapNeeded(agent int) bool {
	if c == nil {
		return false
	}
	if c.DropProb(agent) > 0 || c.DelayFor(agent) > 0 {
		return true
	}
	_, trunc := c.TruncateBudget(agent)
	return trunc
}

// Conn injects the configured write-path faults of one agent into an
// underlying connection. Reads pass through untouched: the wrapper sits on
// the agent side of a link, where outbound messages are the ones a lossy
// network would damage.
type Conn struct {
	net.Conn
	agent int
	cfg   *Config

	mu      sync.Mutex
	rng     *stats.RNG
	written int
	severed bool
}

// Wrap returns conn unchanged when cfg schedules no write-path faults for
// the agent, and a fault-injecting wrapper otherwise.
func Wrap(conn net.Conn, agent int, cfg *Config) net.Conn {
	if !cfg.wrapNeeded(agent) {
		return conn
	}
	return &Conn{
		Conn:  conn,
		agent: agent,
		cfg:   cfg,
		rng:   stats.NewRNG(stats.Mix64(cfg.Seed, int64(agent)+0x5eed)),
	}
}

// Write delivers b through the fault schedule: sleep the configured delay,
// maybe sever the link instead of writing, and never deliver more than the
// truncation budget. A severed or truncated link is closed, so the peer
// observes a broken stream rather than a silent gap (on TCP a lost frame
// and a dead peer look the same).
func (c *Conn) Write(b []byte) (int, error) {
	if d := c.cfg.DelayFor(c.agent); d > 0 {
		time.Sleep(d)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.severed {
		return 0, fmt.Errorf("faultnet: agent %d link already severed", c.agent)
	}
	if p := c.cfg.DropProb(c.agent); p > 0 && c.rng.Float64() < p {
		c.severed = true
		c.Conn.Close()
		return 0, fmt.Errorf("faultnet: agent %d link severed (injected drop)", c.agent)
	}
	if budget, ok := c.cfg.TruncateBudget(c.agent); ok && c.written+len(b) > budget {
		keep := budget - c.written
		if keep < 0 {
			keep = 0
		}
		n, _ := c.Conn.Write(b[:keep])
		c.written += n
		c.severed = true
		c.Conn.Close()
		return n, fmt.Errorf("faultnet: agent %d link truncated after %d bytes (injected)", c.agent, budget)
	}
	n, err := c.Conn.Write(b)
	c.written += n
	return n, err
}
