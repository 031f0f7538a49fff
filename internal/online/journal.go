package online

import "errors"

// DefaultJournal is the epoch-journal depth when Config.Journal is zero:
// how many recent Updates the controller keeps for replay. Subscribers whose
// version fell further behind get a full snapshot instead.
const DefaultJournal = 64

// DefaultSubscriberBuffer is the per-subscription channel capacity when the
// subscriber does not choose one. A subscriber that falls more than a full
// buffer behind is dropped with ErrSlowSubscriber rather than ever blocking
// the publish path.
const DefaultSubscriberBuffer = 64

// ErrSlowSubscriber closes a subscription whose buffer overflowed: the
// consumer was slower than the epoch stream. Resubscribing from the last
// applied version resumes via journal replay or a snapshot.
var ErrSlowSubscriber = errors.New("online: subscriber fell behind the epoch stream and was dropped")

// Subscription is one live epoch stream. Read updates from C; the channel
// closes when the subscription ends — Unsubscribe, a drained controller
// (after a terminal Update), or buffer overflow (Err reports
// ErrSlowSubscriber). Err is valid only after C closes.
type Subscription struct {
	// C delivers the epoch stream: first any catch-up (journal replay from
	// the requested version, or one full snapshot), then live updates.
	C <-chan *Update

	ch  chan *Update
	id  uint64
	err error
}

// Err reports why the subscription's channel closed: nil for a graceful end
// (Unsubscribe or drain), ErrSlowSubscriber when the consumer lagged.
func (s *Subscription) Err() error { return s.err }

// journal is the controller's bounded epoch history: a ring of the most
// recent Updates with contiguous versions. It is guarded by the controller's
// mutex like the rest of the publication state.
type journal struct {
	max  int
	ring []*Update // chronological; ring[0] is oldest
}

func (j *journal) append(u *Update) {
	if len(j.ring) == j.max {
		copy(j.ring, j.ring[1:])
		j.ring[len(j.ring)-1] = u
		return
	}
	j.ring = append(j.ring, u)
}

// since returns the contiguous updates with Version > v, or ok=false when
// the journal no longer reaches back to v+1 (the subscriber must snapshot).
func (j *journal) since(v uint64) ([]*Update, bool) {
	if len(j.ring) == 0 {
		return nil, false
	}
	oldest := j.ring[0].Version
	if v+1 < oldest {
		return nil, false
	}
	// Versions are contiguous, so the slice offset is arithmetic.
	start := int(v + 1 - oldest)
	if start >= len(j.ring) {
		return nil, true // already current
	}
	return j.ring[start:], true
}

// Subscribe opens an epoch stream resuming after version since: a client
// that has applied epoch V passes since=V and receives V+1, V+2, ... — from
// the journal when it still covers that range, otherwise a single full
// snapshot of the current epoch followed by live updates. since=0 means "no
// state": the journal replays from the beginning if it still can (the first
// journaled update is itself a snapshot), else one snapshot.
//
// buf sizes the subscription's channel (DefaultSubscriberBuffer when <= 0);
// catch-up updates never count against it. Publishing never blocks on a
// subscriber: a full channel drops the subscription with ErrSlowSubscriber.
//
// Subscribing to a draining controller yields an immediately-terminal
// stream: one Update with Terminal set, then close, Err() == nil.
func (c *Controller) Subscribe(since uint64, buf int) *Subscription {
	if buf <= 0 {
		buf = DefaultSubscriberBuffer
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	cur := c.epoch.Load()
	if c.draining {
		sub := &Subscription{ch: make(chan *Update, 1)}
		sub.C = sub.ch
		sub.ch <- terminalUpdate(cur)
		close(sub.ch)
		return sub
	}

	var backlog []*Update
	switch {
	case since == cur.Version:
		// Current: live updates only.
	case since > cur.Version:
		// A version from another life (restart, different controller):
		// reset the subscriber with a snapshot.
		backlog = []*Update{cur.SnapshotUpdate()}
	default:
		if replay, ok := c.journal.since(since); ok {
			backlog = replay
		} else {
			backlog = []*Update{cur.SnapshotUpdate()}
		}
	}

	sub := &Subscription{ch: make(chan *Update, len(backlog)+buf), id: c.nextSubID}
	sub.C = sub.ch
	c.nextSubID++
	for _, u := range backlog {
		sub.ch <- u
	}
	if c.subs == nil {
		c.subs = make(map[uint64]*Subscription)
	}
	c.subs[sub.id] = sub
	return sub
}

// Unsubscribe ends a subscription and closes its channel. Safe to call on a
// subscription the controller already dropped (lag or drain).
func (c *Controller) Unsubscribe(sub *Subscription) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.subs[sub.id]; !ok {
		return
	}
	delete(c.subs, sub.id)
	close(sub.ch)
}

// DrainSubscribers ends every subscription with a terminal Update and
// refuses new ones: the daemon's graceful-shutdown hook, called before the
// HTTP server's drain window so long-poll and SSE handlers return instead of
// being abandoned mid-stream. Deltas, routes and solves keep working; only
// the epoch stream ends.
func (c *Controller) DrainSubscribers() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return
	}
	c.draining = true
	term := terminalUpdate(c.epoch.Load())
	for id, sub := range c.subs {
		select {
		case sub.ch <- term:
		default: // full buffer: the close alone signals the end
		}
		delete(c.subs, id)
		close(sub.ch)
	}
}

func terminalUpdate(cur *Epoch) *Update {
	return &Update{Version: cur.Version, Cause: CauseShutdown, Terminal: true}
}

// publishLocked swaps in the next epoch, journals its update and fans it out
// to subscribers. Callers hold c.mu; prev must be the epoch next was built
// from (its version is exactly next.Version-1).
func (c *Controller) publishLocked(prev, next *Epoch) {
	u := &Update{Version: next.Version, Cause: next.Cause}
	if prev == nil {
		u.Snapshot = snapshotOf(next)
	} else {
		u.Diff = diffEpochs(prev, next)
	}
	c.epoch.Store(next)
	c.journal.append(u)
	for id, sub := range c.subs {
		select {
		case sub.ch <- u:
		default:
			// Never block the publish path: drop the laggard. It learns from
			// the closed channel + Err and resubscribes from its version.
			delete(c.subs, id)
			sub.err = ErrSlowSubscriber
			close(sub.ch)
		}
	}
}
