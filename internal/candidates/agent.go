package candidates

import (
	"sort"

	"repro/internal/replication"
)

// Cand is one entry of agent i's candidate list L_i: an object k the agent
// might replicate, with the locally cached state that prices it in O(1).
type Cand struct {
	Object int32 // k
	Size   int64 // o_k
	Reads  int64 // r_ik: the agent's own reads of k
	// NNCost is the agent-local copy of c(i, NN_ik), the cost of reaching
	// the nearest copy of k; it only ever decreases.
	NNCost int32
	// UpdCost is the constant update-traffic term of CoR:
	// (Σ_{x≠i} w_xk) · o_k · c(P_k, i).
	UpdCost int64
}

// Benefit is the agent's private valuation CoR_ik (Eq. 5's essence): the
// read traffic r_ik · o_k · c(i, NN_ik) a local copy saves, minus the
// update traffic it attracts.
func (c *Cand) Benefit() int64 {
	return c.Reads*c.Size*int64(c.NNCost) - c.UpdCost
}

// Agent is the purely local state of server i's agent (§4, Fig. 2): its
// residual capacity and its candidate list L_i. It never reads the shared
// schema after construction: placements reach it only through Apply,
// exactly as the broadcast OMAX reaches a remote server. The synchronous
// and message-passing AGT-RAM engines, the regional mechanism and the
// DRP[σ] game all play these agents; the incremental engine keeps the same
// lists as an Arena.
type Agent struct {
	ID       int
	Residual int64
	Cands    []Cand // sorted by Object
}

// NewAgent builds agent i's candidate list from the public problem data and
// the agent's private demand, priced against the initial (primary-only)
// placement: every object the agent reads and does not hold the primary
// of, that fits its residual capacity and is beneficial.
func NewAgent(p *replication.Problem, i int) *Agent {
	row := p.Work.PerServer[i]
	mark, nn, upd := make([]int32, len(row)), make([]int32, len(row)), make([]int64, len(row))
	residual, n := priceRow(p, nil, i, mark, nn, upd)
	a := &Agent{ID: i, Residual: residual, Cands: make([]Cand, 0, n)}
	for slot, d := range row {
		if mark[slot] > 0 {
			a.Cands = append(a.Cands, Cand{
				Object: d.Object, Size: p.Work.ObjectSize[d.Object], Reads: d.Reads,
				NNCost: nn[slot], UpdCost: upd[slot],
			})
		}
	}
	return a
}

// BuildAgents constructs the active agents of an instance: every server
// with at least one candidate.
func BuildAgents(p *replication.Problem) []*Agent {
	var agents []*Agent
	for i := 0; i < p.M; i++ {
		if a := NewAgent(p, i); a.Active() {
			agents = append(agents, a)
		}
	}
	return agents
}

// Best returns the agent's dominant valuation: the highest positive benefit
// among candidates that still fit, ties to the lower object id. Dead
// candidates — too big for the shrinking residual, or no longer beneficial
// — are pruned permanently (both conditions are monotone), which is what
// drives termination.
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

// Apply processes the broadcast OMAX "object k was replicated on server m".
// If m is this agent, its bid won: capacity shrinks and the candidate
// retires. Otherwise the agent refreshes its nearest-copy cost for k with
// c(i, m), which it computes from public knowledge: Problem.PlaceCost, the
// single-entry form of the distances the placement itself reads. Agents
// that do not list k ask for nothing.
func (a *Agent) Apply(p *replication.Problem, k int32, m int) {
	idx := sort.Search(len(a.Cands), func(j int) bool { return a.Cands[j].Object >= k })
	if idx == len(a.Cands) || a.Cands[idx].Object != k {
		return
	}
	if m == a.ID {
		a.Residual -= a.Cands[idx].Size
		a.Cands = append(a.Cands[:idx], a.Cands[idx+1:]...)
	} else if c := p.PlaceCost(k, m, a.ID); c < a.Cands[idx].NNCost {
		a.Cands[idx].NNCost = c
	}
}

// Active reports whether the agent still has candidates (the LS membership
// of Figure 2, line 18).
func (a *Agent) Active() bool { return len(a.Cands) > 0 }
