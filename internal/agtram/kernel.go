package agtram

import (
	"repro/internal/candidates"
	"repro/internal/mechanism"
	"repro/internal/replication"
)

// kernel is the incremental engine's round machine: the whole mechanism
// state in flat arrays, allocated once, so the steady-state round loop
// (settle, award, broadcast) performs zero heap allocations.
//
// Layout. Every agent's candidate list is a segment of the candidates.Arena;
// the segment doubles as the backing store of the agent's lazy max-heap
// (candHeap holds arena slots, keys the cached benefit bounds, pos the
// slot's position in its heap). On top sits one lazy max-heap over the live
// agents' cached dominant bids (bidVal/bidObj/stale), in mechanism order
// (value desc, agent id asc).
//
// Rounds. settle drives the bid heap until its top is provably exact (stale
// tops re-priced via the candidate heap, spent agents retired); under
// second-price it then settles the larger root child, and that runner-up is
// the Vickrey payment — every other cached bid is bounded above by it. A
// round needs exactly these two bids, which is why one heap suffices.
// broadcast then walks the placed object's demand index, dropping
// nearest-neighbor costs and staleness-marking only demanders whose cached
// bid was for that very object — all other cached bids remain exact upper
// bounds, the invariant the laziness rests on.
type kernel struct {
	p       *replication.Problem
	ar      *candidates.Arena
	payment mechanism.PaymentRule

	// Per-candidate state (indexed by arena slot).
	keys     []int64 // cached benefit at last pricing; a true upper bound
	candHeap []int32 // per-agent segments: arena slots in heap order
	pos      []int32 // arena slot -> index in its agent's heap, -1 removed

	// Per-agent state.
	heapLen  []int32
	residual []int64
	bidVal   []int64 // cached dominant bid; exact iff !stale
	bidObj   []int32
	stale    []bool
	dead     []bool

	bidHeap []int32 // live agent ids in bid-heap order
}

// newKernel builds the round machine over an arena.
func newKernel(p *replication.Problem, ar *candidates.Arena, payment mechanism.PaymentRule) *kernel {
	n := int32(ar.Cands())
	k := &kernel{
		p: p, ar: ar, payment: payment,
		keys:     make([]int64, n),
		candHeap: make([]int32, n),
		pos:      make([]int32, n),
		heapLen:  make([]int32, ar.M),
		residual: make([]int64, ar.M),
		bidVal:   make([]int64, ar.M),
		bidObj:   make([]int32, ar.M),
		stale:    make([]bool, ar.M),
		dead:     make([]bool, ar.M),
		bidHeap:  make([]int32, 0, ar.M),
	}
	copy(k.residual, ar.Residual)

	// Candidate heaps: keys start exact (the arena was priced against the
	// solve's start placement, the state of round one), so each agent's
	// dominant bid is simply its heap top.
	for c := int32(0); c < n; c++ {
		k.keys[c] = ar.Benefit(c)
		k.candHeap[c] = c
	}
	for i := 0; i < ar.M; i++ {
		b, n := ar.Start[i], int32(ar.Len(i))
		k.heapLen[i] = n
		for j := n/2 - 1; j >= 0; j-- {
			k.candSiftDown(b, j, n)
		}
		for j := int32(0); j < n; j++ {
			k.pos[k.candHeap[b+j]] = j
		}
		if n > 0 {
			top := k.candHeap[b]
			k.bidVal[i] = k.keys[top]
			k.bidObj[i] = ar.Objs[top]
			k.bidHeap = append(k.bidHeap, int32(i))
		} else {
			k.dead[i] = true
		}
	}
	for j := int32(len(k.bidHeap))/2 - 1; j >= 0; j-- {
		k.bidSiftDown(j)
	}
	return k
}

// seedValuations is the pricing work charged for round one: every candidate
// was valued once during construction, exactly as Solve's first-round scan.
func (k *kernel) seedValuations() int64 { return int64(k.ar.Cands()) }

// --- candidate heaps (per-agent, keyed by cached benefit desc, object asc) ---

func (k *kernel) candLess(x, y int32) bool {
	if k.keys[x] != k.keys[y] {
		return k.keys[x] > k.keys[y]
	}
	return k.ar.Objs[x] < k.ar.Objs[y]
}

// candSiftDown restores the heap below relative index j of the segment at
// base b with n entries. Callers fix pos afterwards only during heapify;
// steady-state paths maintain pos here.
func (k *kernel) candSiftDown(b, j, n int32) {
	h := k.candHeap[b : b+n : b+n]
	node := h[j]
	for {
		l := 2*j + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && k.candLess(h[r], h[l]) {
			c = r
		}
		if !k.candLess(h[c], node) {
			break
		}
		h[j] = h[c]
		k.pos[h[j]] = j
		j = c
	}
	h[j] = node
	k.pos[node] = j
}

// candPopTop removes agent i's heap top permanently.
func (k *kernel) candPopTop(i int32) {
	b := k.ar.Start[i]
	n := k.heapLen[i] - 1
	k.heapLen[i] = n
	k.pos[k.candHeap[b]] = -1
	if n > 0 {
		k.candHeap[b] = k.candHeap[b+n]
		k.candSiftDown(b, 0, n)
	}
}

// best re-prices agent i's dominant bid lazily: only candidates that reach
// the heap top are touched, and candidates pruned by capacity or
// non-positive benefit leave permanently (both conditions are monotone).
// Returns the eval count alongside the bid.
func (k *kernel) best(i int32) (obj int32, value int64, evals int64, ok bool) {
	ar := k.ar
	b := ar.Start[i]
	for k.heapLen[i] > 0 {
		top := k.candHeap[b]
		if ar.Sizes[top] > k.residual[i] {
			k.candPopTop(i) // prune: residual only shrinks
			continue
		}
		v := ar.Benefit(top)
		evals++
		if v <= 0 {
			k.candPopTop(i) // prune: benefit only shrinks
			continue
		}
		if v < k.keys[top] {
			k.keys[top] = v
			k.candSiftDown(b, 0, k.heapLen[i])
			continue
		}
		// The cached upper bound is tight: this candidate dominates every
		// other cached (hence true) benefit of the agent.
		return ar.Objs[top], v, evals, true
	}
	return 0, 0, evals, false
}

// --- the bid heap (keyed by cached bid value desc, agent id asc) ---

func (k *kernel) bidLess(x, y int32) bool {
	if k.bidVal[x] != k.bidVal[y] {
		return k.bidVal[x] > k.bidVal[y]
	}
	return x < y
}

func (k *kernel) bidSiftDown(j int32) {
	h := k.bidHeap
	n := int32(len(h))
	node := h[j]
	for {
		l := 2*j + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && k.bidLess(h[r], h[l]) {
			c = r
		}
		if !k.bidLess(h[c], node) {
			break
		}
		h[j] = h[c]
		j = c
	}
	h[j] = node
}

// bidRemove retires the agent at index j of the bid heap, filling the hole
// with the last entry. Only the root or a root child is ever removed, and
// the root sorts before every entry, so the mover never needs to sift up.
func (k *kernel) bidRemove(j int32) {
	n := int32(len(k.bidHeap)) - 1
	k.bidHeap[j] = k.bidHeap[n]
	k.bidHeap = k.bidHeap[:n]
	if j < n {
		k.bidSiftDown(j)
	}
}

// refresh re-prices the stale agent at index j of the bid heap: its cached
// bid becomes exact (values only fall, so the entry sifts down), or the
// agent leaves the game when nothing beneficial and feasible remains
// (Figure 2, line 18).
func (k *kernel) refresh(j int32) int64 {
	i := k.bidHeap[j]
	obj, v, evals, ok := k.best(i)
	k.stale[i] = false
	if !ok {
		k.dead[i] = true
		k.bidRemove(j)
		return evals
	}
	k.bidObj[i], k.bidVal[i] = obj, v
	k.bidSiftDown(j)
	return evals
}

// settle produces the round outcome: the exact winner under the mechanism
// order and, under second-price, the exact second-best report. A stale top
// is refreshed in place until the top is fresh (refreshes only lower
// values, so a new top can only surface from below, already bounded).
// Under second-price the larger root child is then refreshed until fresh;
// it can never overtake the top, whose value it was already bounded by
// (with the larger agent id on a tie).
func (k *kernel) settle(valuations *int64) (winner int32, value int64, second int64, ok bool) {
	for len(k.bidHeap) > 0 && k.stale[k.bidHeap[0]] {
		*valuations += k.refresh(0)
	}
	if len(k.bidHeap) == 0 {
		return 0, 0, 0, false
	}
	winner = k.bidHeap[0]
	if k.payment == mechanism.FirstPrice {
		return winner, k.bidVal[winner], 0, true
	}
	for len(k.bidHeap) > 1 {
		si := int32(1)
		if len(k.bidHeap) > 2 && k.bidLess(k.bidHeap[2], k.bidHeap[1]) {
			si = 2
		}
		runner := k.bidHeap[si]
		if !k.stale[runner] {
			// Every other entry's cached value (an upper bound on its true
			// value) is <= the runner's by the heap property.
			return winner, k.bidVal[winner], k.bidVal[runner], true
		}
		*valuations += k.refresh(si)
	}
	return winner, k.bidVal[winner], 0, true // a lone bidder is paid 0
}

// award records the win locally: the replica is now on the winner, capacity
// shrinks, the candidate retires, and the winner's cached bid goes stale.
// The winner is fresh post-settle, so its winning candidate is exactly its
// heap top.
func (k *kernel) award(winner int32) {
	k.residual[winner] -= k.ar.Sizes[k.candHeap[k.ar.Start[winner]]]
	k.candPopTop(winner)
	k.stale[winner] = true
}

// broadcast is the event-driven OMAX: only the placed object's demanders
// can have been affected, and of those only ones whose candidate for that
// object both still lives and actually got a closer replica. A demander's
// cached bid goes stale only when the broadcast touched the very object it
// was bidding on — every other cached bid remains an exact value or a valid
// upper bound, because benefits only fall. The distances come from the
// problem's PlaceCosts view, the same source the schema's placement reads.
func (k *kernel) broadcast(obj, server int32) {
	ar := k.ar
	costs := k.p.PlaceCosts(obj, int(server))
	for b, ref := range k.p.DemandersOf(obj) {
		i := ref.Server
		if i == server || k.dead[i] {
			continue
		}
		c := ar.Slot2Cand[ref.Cell]
		if c < 0 || k.pos[c] < 0 {
			continue // never qualified, or pruned/awarded since
		}
		cost := costs.Demander(b, i)
		if cost >= ar.NNCosts[c] {
			continue // the new replica is no closer
		}
		ar.NNCosts[c] = cost
		// The heap key stays put as a stale upper bound; only a bid on the
		// placed object itself must be re-settled.
		if k.bidObj[i] == obj {
			k.stale[i] = true
		}
	}
}
