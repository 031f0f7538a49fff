package candidates

import (
	"sort"

	"repro/internal/replication"
)

// Cand is one candidate replica with the cached pricing state needed to
// value it in O(1): the agent-local nearest-replica cost (only ever drops)
// and the constant update-traffic term of the CoR valuation.
type Cand struct {
	Object  int32
	Size    int64
	Reads   int64
	NNCost  int32
	UpdCost int64
}

// Benefit is the CoR valuation of Eq. 5's essence: read traffic saved by a
// local copy minus the update traffic it attracts.
func (c *Cand) Benefit() int64 {
	return c.Reads*c.Size*int64(c.NNCost) - c.UpdCost
}

// Agent is the purely local replica-bidding state of one server, shared by
// the auction baselines and the hierarchical mechanism. (The AGT-RAM
// package keeps its own equivalent type — it is the paper's central
// abstraction and its documentation anchors to the paper's notation.)
type Agent struct {
	ID       int
	Residual int64
	Cands    []Cand // sorted by Object
}

// BuildAgents constructs the per-server agents of an instance: every server
// with at least one initially beneficial, capacity-feasible candidate.
func BuildAgents(p *replication.Problem) []*Agent {
	var agents []*Agent
	w := p.Work
	for i := 0; i < p.M; i++ {
		a := &Agent{ID: i, Residual: p.Capacity[i] - p.PrimaryLoad(i)}
		base := p.CellBase()[i]
		for slot, d := range w.PerServer[i] {
			if d.Reads == 0 || int(w.Primary[d.Object]) == i {
				continue
			}
			cPk := p.PrimaryCost(base + int32(slot))
			c := Cand{
				Object:  d.Object,
				Size:    w.ObjectSize[d.Object],
				Reads:   d.Reads,
				NNCost:  cPk,
				UpdCost: (w.TotalWrites[d.Object] - d.Writes) * w.ObjectSize[d.Object] * int64(cPk),
			}
			if c.Benefit() > 0 && c.Size <= a.Residual {
				a.Cands = append(a.Cands, c)
			}
		}
		if len(a.Cands) > 0 {
			sort.Slice(a.Cands, func(x, y int) bool { return a.Cands[x].Object < a.Cands[y].Object })
			agents = append(agents, a)
		}
	}
	return agents
}

// Best returns the agent's dominant valuation: the highest positive benefit
// among candidates that still fit. Dead candidates — too big for the
// shrinking residual, or no longer beneficial — are pruned permanently
// (both conditions are monotone).
func (a *Agent) Best() (obj int32, val int64, ok bool) {
	out := a.Cands[:0]
	for i := range a.Cands {
		c := a.Cands[i]
		if c.Size > a.Residual {
			continue
		}
		b := c.Benefit()
		if b <= 0 {
			continue
		}
		out = append(out, c)
		if !ok || b > val || (b == val && c.Object < obj) {
			val, obj, ok = b, c.Object, true
		}
	}
	a.Cands = out
	return obj, val, ok
}

// Observe processes the broadcast "object k replicated at cost c from me".
func (a *Agent) Observe(k int32, cost int32) {
	idx := sort.Search(len(a.Cands), func(j int) bool { return a.Cands[j].Object >= k })
	if idx < len(a.Cands) && a.Cands[idx].Object == k && cost < a.Cands[idx].NNCost {
		a.Cands[idx].NNCost = cost
	}
}

// Won records a winning bid: capacity shrinks and the candidate retires.
func (a *Agent) Won(k int32) {
	idx := sort.Search(len(a.Cands), func(j int) bool { return a.Cands[j].Object >= k })
	if idx < len(a.Cands) && a.Cands[idx].Object == k {
		a.Residual -= a.Cands[idx].Size
		a.Cands = append(a.Cands[:idx], a.Cands[idx+1:]...)
	}
}

// Active reports whether the agent still has candidates.
func (a *Agent) Active() bool { return len(a.Cands) > 0 }
