package routing

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"repro/internal/online"
)

// Source is where a client's epoch stream comes from: the in-process
// controller, or the daemon's GET /epochs endpoint. Subscribe opens a stream
// resuming after version since; the returned cancel func releases it. The
// channel closes when the stream ends — the consumer resubscribes from its
// current version (Follow does this).
type Source interface {
	Subscribe(ctx context.Context, since uint64) (<-chan *online.Update, func(), error)
}

// ControllerSource streams epochs straight from an in-process Controller —
// the zero-copy path for clients embedded in the daemon or in simulations.
type ControllerSource struct {
	Ctrl *online.Controller
	// Buffer sizes the subscription channel (controller default when 0).
	Buffer int
}

// Subscribe opens a controller subscription. The cancel func unsubscribes.
func (s *ControllerSource) Subscribe(ctx context.Context, since uint64) (<-chan *online.Update, func(), error) {
	sub := s.Ctrl.Subscribe(since, s.Buffer)
	return sub.C, func() { s.Ctrl.Unsubscribe(sub) }, nil
}

// HTTPSource streams epochs by long-polling a daemon's GET /epochs endpoint.
// Each poll asks for everything after the client's version and blocks
// server-side up to Wait; 204 means "nothing yet, poll again".
type HTTPSource struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// Client is the HTTP client (http.DefaultClient when nil). Its timeout, if
	// any, must exceed Wait or every poll dies as a timeout.
	Client *http.Client
	// Wait is the server-side long-poll window per request (the server's
	// default when 0).
	Wait time.Duration
}

// Subscribe starts a poll loop feeding a channel. The loop ends — closing the
// channel — on context cancellation or on a terminal update. Every failed
// poll (a transport error, a status other than 200 or 204, a body that does
// not decode) backs off, from 10 ms doubling to 1 s, and retries with the
// channel left open: a closed channel would make Follow resubscribe at
// once, with no backoff. A Client whose Timeout does not exceed Wait is
// rejected up front: such a source can never complete a quiet poll — every
// parked request dies as a client-side timeout and the loop degenerates
// into a silent retry storm.
func (s *HTTPSource) Subscribe(ctx context.Context, since uint64) (<-chan *online.Update, func(), error) {
	if s.Client != nil && s.Client.Timeout > 0 && s.Wait > 0 && s.Client.Timeout <= s.Wait {
		return nil, nil, fmt.Errorf("routing: HTTPSource client timeout %v must exceed long-poll wait %v",
			s.Client.Timeout, s.Wait)
	}
	ctx, cancel := context.WithCancel(ctx)
	ch := make(chan *online.Update, 16)
	go func() {
		defer close(ch)
		cur := since
		backoff := 10 * time.Millisecond
		for ctx.Err() == nil {
			updates, err := s.poll(ctx, cur)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				select {
				case <-time.After(backoff):
				case <-ctx.Done():
					return
				}
				if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				continue
			}
			backoff = 10 * time.Millisecond
			for _, u := range updates {
				select {
				case ch <- u:
				case <-ctx.Done():
					return
				}
				if u.Terminal {
					return
				}
				cur = u.Version
			}
		}
	}()
	return ch, cancel, nil
}

func (s *HTTPSource) poll(ctx context.Context, since uint64) ([]*online.Update, error) {
	q := url.Values{"since": {strconv.FormatUint(since, 10)}}
	if s.Wait > 0 {
		q.Set("wait", s.Wait.String())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.Base+"/epochs?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	hc := s.Client
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		var updates []*online.Update
		if err := json.NewDecoder(resp.Body).Decode(&updates); err != nil {
			return nil, err
		}
		if slices.Contains(updates, nil) {
			return nil, errors.New("routing: GET /epochs: null update")
		}
		return updates, nil
	case http.StatusNoContent:
		return nil, nil
	default:
		return nil, fmt.Errorf("routing: GET /epochs: %s", resp.Status)
	}
}

// Follow drives a Client from a Source until the stream ends for good: it
// subscribes from the client's current version, applies every update, and on
// any recoverable break — a closed stream, a dropped slow subscription, a
// stale diff — resubscribes from wherever the client got to, picking up via
// journal replay or snapshot resync. It returns nil on a terminal update
// (the controller drained) and ctx.Err() on cancellation.
func Follow(ctx context.Context, c *Client, src Source) error {
	for {
		ch, cancel, err := src.Subscribe(ctx, c.Version())
		if err != nil {
			return err
		}
		err = func() error {
			defer cancel()
			for {
				select {
				case <-ctx.Done():
					return ctx.Err()
				case u, ok := <-ch:
					if !ok {
						return errResubscribe
					}
					if u.Terminal {
						return nil
					}
					if err := c.Apply(u); err != nil {
						// A stale or corrupt update: resubscribing from
						// Version() forces a journal replay or snapshot.
						return errResubscribe
					}
				}
			}
		}()
		if err != errResubscribe {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
}

var errResubscribe = fmt.Errorf("routing: resubscribe")
