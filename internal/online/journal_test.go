package online

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/testutil"
)

// newJournalController builds a controller over a small instance with the
// given journal depth.
func newJournalController(t *testing.T, seed int64, journal int) *Controller {
	t.Helper()
	p := testutil.MustBuild(testutil.Small(seed))
	ctrl, err := New(p.Cost, p.Work, p.Capacity, Config{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// collect drains a subscription's buffered updates without blocking.
func collect(sub *Subscription) []*Update {
	var out []*Update
	for {
		select {
		case u, ok := <-sub.C:
			if !ok {
				return out
			}
			out = append(out, u)
		default:
			return out
		}
	}
}

// demandDelta is a one-cell demand bump for driving epoch publishes.
func demandDelta(server int, object int32, reads int64) []Delta {
	return []Delta{{Kind: KindDemand, Server: server, Object: object, Reads: reads}}
}

// TestSubscribeReplaysJournal checks the resume contract: a subscriber at
// version V receives exactly V+1, V+2, ... as diffs when the journal still
// covers them, and every diff chains From = Version-1.
func TestSubscribeReplaysJournal(t *testing.T) {
	testutil.LeakCheck(t)
	ctrl := newJournalController(t, 31, 0)
	defer ctrl.Close()
	for i := 0; i < 5; i++ {
		if _, err := ctrl.ApplyDeltas(demandDelta(i%3, int32(i), 100)); err != nil {
			t.Fatal(err)
		}
	}
	cur := ctrl.Current().Version // 6: init + 5 delta epochs

	sub := ctrl.Subscribe(2, 0)
	defer ctrl.Unsubscribe(sub)
	got := collect(sub)
	if len(got) != int(cur-2) {
		t.Fatalf("replay from 2 delivered %d updates, want %d", len(got), cur-2)
	}
	for i, u := range got {
		if want := uint64(3 + i); u.Version != want {
			t.Fatalf("update %d has version %d, want %d", i, u.Version, want)
		}
		if u.Snapshot != nil || u.Diff == nil {
			t.Fatalf("journal replay update %d is not a diff: %+v", i, u)
		}
		if u.Diff.From != u.Version-1 {
			t.Fatalf("diff %d chains from %d, want %d", u.Version, u.Diff.From, u.Version-1)
		}
		if u.Cause != CauseDeltas {
			t.Fatalf("delta epoch %d lost its provenance: cause %q", u.Version, u.Cause)
		}
	}
}

// TestSubscribeFallsBackToSnapshot checks the journal bound: a subscriber
// older than the ring gets one full snapshot of the current epoch, and the
// snapshot validates and matches the live placement.
func TestSubscribeFallsBackToSnapshot(t *testing.T) {
	testutil.LeakCheck(t)
	ctrl := newJournalController(t, 32, 4)
	defer ctrl.Close()
	for i := 0; i < 10; i++ {
		if _, err := ctrl.ApplyDeltas(demandDelta(i%3, int32(i%5), 50)); err != nil {
			t.Fatal(err)
		}
	}
	cur := ctrl.Current()

	// Version 1 fell off a 4-deep journal long ago.
	sub := ctrl.Subscribe(1, 0)
	defer ctrl.Unsubscribe(sub)
	got := collect(sub)
	if len(got) != 1 || got[0].Snapshot == nil {
		t.Fatalf("stale subscriber got %d updates (first snapshot=%v), want one snapshot", len(got), got[0].Snapshot != nil)
	}
	if got[0].Version != cur.Version {
		t.Fatalf("snapshot is of version %d, live is %d", got[0].Version, cur.Version)
	}
	ps := got[0].Snapshot
	if err := ps.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < cur.Problem.N; k++ {
		want := cur.Schema.Replicas(int32(k))
		gotR := ps.ReplicaSet(k)
		if len(want) != len(gotR) {
			t.Fatalf("object %d: snapshot has %d replicas, schema %d", k, len(gotR), len(want))
		}
		for i := range want {
			if want[i] != gotR[i] {
				t.Fatalf("object %d replica %d: snapshot %d != schema %d", k, i, gotR[i], want[i])
			}
		}
	}

	// A subscriber from the future (another controller's version) resets too.
	sub2 := ctrl.Subscribe(cur.Version+100, 0)
	defer ctrl.Unsubscribe(sub2)
	if got := collect(sub2); len(got) != 1 || got[0].Snapshot == nil {
		t.Fatalf("future subscriber got %v, want one snapshot", got)
	}

	// A current subscriber gets nothing until the next publish.
	sub3 := ctrl.Subscribe(cur.Version, 0)
	defer ctrl.Unsubscribe(sub3)
	if got := collect(sub3); len(got) != 0 {
		t.Fatalf("current subscriber got %d updates before any publish", len(got))
	}
	if _, err := ctrl.ApplyDeltas(demandDelta(0, 0, 10)); err != nil {
		t.Fatal(err)
	}
	if got := collect(sub3); len(got) != 1 || got[0].Version != cur.Version+1 {
		t.Fatalf("live update not delivered: %v", got)
	}
}

// TestJournalRingBoundaries pins the ring's exact edge: once the journal has
// wrapped, a subscriber at version oldest-1 still replays the entire ring
// (the oldest retained update is exactly its next version), while oldest-2 —
// one version further back — must fall back to a snapshot.
func TestJournalRingBoundaries(t *testing.T) {
	testutil.LeakCheck(t)
	const depth = 4
	ctrl := newJournalController(t, 36, depth)
	defer ctrl.Close()
	for i := 0; i < 10; i++ {
		if _, err := ctrl.ApplyDeltas(demandDelta(i%3, int32(i%7), 40)); err != nil {
			t.Fatal(err)
		}
	}
	cur := ctrl.Current().Version // 11: init + 10 deltas, ring holds 8..11
	oldest := cur - depth + 1

	// since = oldest-1: the full wrapped ring, every entry a chained diff.
	sub := ctrl.Subscribe(oldest-1, 0)
	defer ctrl.Unsubscribe(sub)
	got := collect(sub)
	if len(got) != depth {
		t.Fatalf("since=oldest-1 replayed %d updates, want the full ring of %d", len(got), depth)
	}
	for i, u := range got {
		if want := oldest + uint64(i); u.Version != want {
			t.Fatalf("ring entry %d has version %d, want %d", i, u.Version, want)
		}
		if u.Diff == nil || u.Diff.From != u.Version-1 {
			t.Fatalf("ring entry %d is not a chained diff: %+v", i, u)
		}
	}

	// since = oldest-2: the ring no longer reaches back; one snapshot.
	sub2 := ctrl.Subscribe(oldest-2, 0)
	defer ctrl.Unsubscribe(sub2)
	if got := collect(sub2); len(got) != 1 || got[0].Snapshot == nil || got[0].Version != cur {
		t.Fatalf("since=oldest-2 got %d updates, want one snapshot of %d", len(got), cur)
	}

	// since = cur-1: the tail alone.
	sub3 := ctrl.Subscribe(cur-1, 0)
	defer ctrl.Unsubscribe(sub3)
	if got := collect(sub3); len(got) != 1 || got[0].Version != cur || got[0].Diff == nil {
		t.Fatalf("since=cur-1 got %v, want the single tail diff", got)
	}
}

// TestSubscribeBacklogGapFreeProperty is the resume contract as a property:
// for every journal depth, history length and since value, the catch-up
// backlog is strictly increasing, diffs chain without gaps, the first diff
// resumes exactly at since+1, and any snapshot stands alone at the current
// version. No (depth, history, since) combination may yield a backlog a
// client cannot apply.
func TestSubscribeBacklogGapFreeProperty(t *testing.T) {
	testutil.LeakCheck(t)
	for _, depth := range []int{2, 4, 7, DefaultJournal} {
		for _, publishes := range []int{0, 1, 3, 9, 70} {
			ctrl := newJournalController(t, 37, depth)
			for i := 0; i < publishes; i++ {
				if _, err := ctrl.ApplyDeltas(demandDelta(i%5, int32(i%11), 15)); err != nil {
					t.Fatal(err)
				}
			}
			cur := ctrl.Current().Version
			for since := uint64(0); since <= cur+2; since++ {
				sub := ctrl.Subscribe(since, 0)
				got := collect(sub)
				ctrl.Unsubscribe(sub)
				last := since
				for i, u := range got {
					switch {
					case u.Snapshot != nil:
						// A snapshot only ever leads the backlog: either the
						// journaled origin (replayed from since=0) or a reset
						// of the current epoch; diffs chain forward from it.
						if i != 0 {
							t.Fatalf("depth=%d publishes=%d since=%d: snapshot mid-backlog at %d: %+v",
								depth, publishes, since, i, got)
						}
						if u.Version != cur && u.Version != since+1 {
							t.Fatalf("depth=%d publishes=%d since=%d: leading snapshot at %d, want current %d or resume %d",
								depth, publishes, since, u.Version, cur, since+1)
						}
						last = u.Version
					case u.Diff != nil:
						if u.Version != last+1 || u.Diff.From != last {
							t.Fatalf("depth=%d publishes=%d since=%d: entry %d breaks the chain (have %d, diff %d->%d)",
								depth, publishes, since, i, last, u.Diff.From, u.Version)
						}
						last = u.Version
					default:
						t.Fatalf("depth=%d publishes=%d since=%d: update %d is neither diff nor snapshot", depth, publishes, since, i)
					}
				}
				if since <= cur && last != cur {
					t.Fatalf("depth=%d publishes=%d since=%d: backlog ends at %d, not current %d",
						depth, publishes, since, last, cur)
				}
			}
			ctrl.Close()
		}
	}
}

// TestSlowSubscriberDropped checks the no-blocking guarantee: a subscriber
// that never reads is dropped with ErrSlowSubscriber once its buffer fills,
// and publishing never stalls.
func TestSlowSubscriberDropped(t *testing.T) {
	testutil.LeakCheck(t)
	ctrl := newJournalController(t, 33, 0)
	defer ctrl.Close()
	sub := ctrl.Subscribe(ctrl.Current().Version, 1)
	for i := 0; i < 4; i++ {
		if _, err := ctrl.ApplyDeltas(demandDelta(0, int32(i), 25)); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(sub)
	if len(got) != 1 {
		t.Fatalf("buf-1 subscriber received %d updates, want the 1 that fit", len(got))
	}
	if sub.Err() != ErrSlowSubscriber {
		t.Fatalf("Err() = %v, want ErrSlowSubscriber", sub.Err())
	}
	if m := ctrl.Metrics(); m.Subscribers != 0 {
		t.Fatalf("dropped subscriber still counted: %d", m.Subscribers)
	}
	// Unsubscribe after the drop must be a no-op, not a double close.
	ctrl.Unsubscribe(sub)
}

// TestDrainSubscribers checks graceful shutdown: every live stream ends with
// a terminal update and a closed channel, Err() == nil, and subscribing to a
// drained controller yields an immediately-terminal stream.
func TestDrainSubscribers(t *testing.T) {
	testutil.LeakCheck(t)
	ctrl := newJournalController(t, 34, 0)
	sub := ctrl.Subscribe(ctrl.Current().Version, 0)
	ctrl.DrainSubscribers()

	var last *Update
	n := 0
	for u := range sub.C {
		last = u
		n++
	}
	if n != 1 || last == nil || !last.Terminal || last.Cause != CauseShutdown {
		t.Fatalf("drained stream delivered %d updates, last %+v; want one terminal", n, last)
	}
	if sub.Err() != nil {
		t.Fatalf("drained subscription Err() = %v, want nil", sub.Err())
	}

	late := ctrl.Subscribe(0, 0)
	got := collect(late)
	if len(got) != 1 || !got[0].Terminal {
		t.Fatalf("post-drain subscribe got %v, want immediate terminal", got)
	}
	ctrl.Close() // double-drain must be safe
}

// TestConcurrentSubscribersGapless is the journal's race test: subscribers
// join at random points while delta batches and solves publish concurrently;
// every subscriber must observe a strictly increasing, gapless version
// sequence (each update is prev+1, or a snapshot that legitimately jumps).
// Run under -race -count=2 via make loadtest.
func TestConcurrentSubscribersGapless(t *testing.T) {
	testutil.LeakCheck(t)
	ctrl := newJournalController(t, 35, 8)
	defer ctrl.Close()

	const (
		writers    = 3
		perWriter  = 20
		readers    = 6
		liveSolves = 3
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Odd readers resume from a version they pretend to have; even
			// readers start cold. Both must end up gapless.
			since := uint64(0)
			if g%2 == 1 {
				since = ctrl.Current().Version
			}
			sub := ctrl.Subscribe(since, 4)
			defer ctrl.Unsubscribe(sub)
			last := since
			synced := since != 0
			for {
				select {
				case <-stop:
					return
				case u, ok := <-sub.C:
					if !ok {
						if sub.Err() == ErrSlowSubscriber {
							// Legitimate drop under load: resubscribe from
							// where we got to, snapshot or replay decides.
							sub = ctrl.Subscribe(last, 4)
							continue
						}
						return
					}
					switch {
					case u.Terminal:
						return
					case u.Snapshot != nil:
						if synced && u.Version < last {
							errs <- errVersionRegression(last, u.Version)
							return
						}
						last, synced = u.Version, true
					case u.Diff != nil:
						if synced && u.Version != last+1 {
							errs <- errVersionRegression(last, u.Version)
							return
						}
						if u.Diff.From != u.Version-1 {
							errs <- errVersionRegression(u.Diff.From, u.Version)
							return
						}
						last, synced = u.Version, true
					}
				}
			}
		}(g)
	}

	var writerWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(g int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := ctrl.ApplyDeltas(demandDelta((g+i)%3, int32((g*7+i)%10), int64(10+i))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; i < liveSolves; i++ {
			if err := ctrl.SolveNow(context.Background()); err != nil {
				errs <- err
				return
			}
		}
	}()
	writerWG.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	want := uint64(1 + writers*perWriter + liveSolves)
	if got := ctrl.Current().Version; got != want {
		t.Fatalf("final version %d, want %d (every publish bumps exactly once)", got, want)
	}
}

func errVersionRegression(last, got uint64) error {
	return fmt.Errorf("subscriber version sequence broke: had %d, got %d", last, got)
}
