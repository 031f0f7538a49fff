// Package disposition makes Section 4's Axiom 2 case analysis concrete.
// The paper distinguishes three information structures for the DRP:
//
//	DRP[π]   — the cost of replication CoR is private, capacity public;
//	DRP[σ]   — the capacity is private, CoR public;
//	DRP[π,σ] — both are private;
//
// and argues DRP[π] is "the only natural choice": knowing other agents'
// capacities gives no advantage, while a private capacity is not worth
// lying about. This package implements the DRP[σ] game — agents report a
// claimed capacity alongside their bids — and measures empirically what a
// capacity misreport buys: over-claiming wins allocations that fail
// feasibility and gets the agent ejected; under-claiming only forfeits the
// agent's own opportunities. Either way, truthful capacity reporting
// dominates, which is why the mechanism can safely treat capacity as
// public knowledge.
package disposition

import (
	"fmt"
	"math"

	"repro/internal/candidates"
	"repro/internal/mechanism"
	"repro/internal/replication"
)

// Variant identifies one of Axiom 2's information structures.
type Variant int

// The three cases of the paper's Section 4.
const (
	PrivateValuation Variant = iota // DRP[π]
	PrivateCapacity                 // DRP[σ]
	PrivateBoth                     // DRP[π,σ]
)

// String names the variant in the paper's notation.
func (v Variant) String() string {
	switch v {
	case PrivateValuation:
		return "DRP[π]"
	case PrivateCapacity:
		return "DRP[σ]"
	case PrivateBoth:
		return "DRP[π,σ]"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Description returns the paper's characterization.
func (v Variant) Description() string {
	switch v {
	case PrivateValuation:
		return "each agent holds the cost to replicate CoR privately; capacity and everything else is public — the paper's natural choice"
	case PrivateCapacity:
		return "each agent holds its available capacity privately; CoR and everything else is public"
	case PrivateBoth:
		return "each agent holds both the cost of replication and the capacity privately"
	default:
		return ""
	}
}

// Outcome summarizes one agent's run through the DRP[σ] game.
type Outcome struct {
	// Wins counts allocations the agent received and kept.
	Wins int
	// Utility accumulates the paper's u = p + v over kept wins: the
	// mechanism's payment plus the agent's true valuation at award time.
	Utility int64
	// Ejected reports whether an over-claimed win failed feasibility and
	// the agent was removed from the game.
	Ejected bool
	// SystemSavings is the final OTC savings of the whole system.
	SystemSavings float64
}

// CapacityMisreport plays the DRP[σ] game twice — once with the chosen
// agent reporting its capacity truthfully, once claiming factor times the
// truth — and returns both outcomes. factor > 1 over-claims (risking
// ejection on the first infeasible award), factor < 1 under-claims
// (forfeiting opportunities), factor == 1 reproduces the truthful game.
// factor must be positive and finite, and the claim must fit an int64.
func CapacityMisreport(build func() (*replication.Problem, error), agentID int, factor float64) (truthful, misreport Outcome, err error) {
	if !(factor > 0) || math.IsInf(factor, 1) {
		return truthful, misreport, fmt.Errorf("disposition: factor must be positive and finite, got %v", factor)
	}
	pT, err := build()
	if err != nil {
		return truthful, misreport, err
	}
	if agentID < 0 || agentID >= pT.M {
		return truthful, misreport, fmt.Errorf("disposition: agent %d out of range [0,%d)", agentID, pT.M)
	}
	truth := pT.Capacity[agentID] - pT.PrimaryLoad(agentID)
	// The truth is non-negative, so only the top of the range can
	// overflow; float64(math.MaxInt64) is 2^63, the first value past it.
	claim := float64(truth) * factor
	if claim >= math.MaxInt64 {
		return truthful, misreport, fmt.Errorf("disposition: claimed capacity %v × %d exceeds the int64 range", factor, truth)
	}
	truthful, err = playSigma(pT, agentID, truth)
	if err != nil {
		return truthful, misreport, err
	}
	pM, err := build()
	if err != nil {
		return truthful, misreport, err
	}
	misreport, err = playSigma(pM, agentID, int64(claim))
	return truthful, misreport, err
}

// playSigma runs the sealed-bid game with the chosen agent claiming the
// given residual capacity. All other agents are truthful.
func playSigma(p *replication.Problem, agentID int, claim int64) (Outcome, error) {
	var out Outcome
	schema := p.NewSchema()
	agents := candidates.BuildAgents(p)

	// The liar's candidate pruning uses the claim; the schema keeps the
	// truth.
	for _, a := range agents {
		if a.ID == agentID {
			a.Residual = claim
		}
	}

	ejected := false
	for {
		bids := make([]mechanism.Bid, 0, len(agents))
		live := agents[:0]
		for _, a := range agents {
			if ejected && a.ID == agentID {
				continue
			}
			obj, val, ok := a.Best()
			if !ok {
				continue
			}
			live = append(live, a)
			bids = append(bids, mechanism.Bid{Agent: a.ID, Item: obj, Value: val})
		}
		agents = live
		round, ok := mechanism.RunRound(bids, mechanism.SecondPrice)
		if !ok {
			break
		}
		win := round.Winner
		if err := schema.CanPlace(win.Item, win.Agent); err != nil {
			// The claimed capacity was a lie: the award is infeasible. The
			// mechanism ejects the agent; the round is void.
			if win.Agent != agentID {
				return out, fmt.Errorf("disposition: truthful agent %d produced an infeasible bid: %v", win.Agent, err)
			}
			ejected = true
			out.Ejected = true
			continue
		}
		if _, err := schema.PlaceReplica(win.Item, win.Agent); err != nil {
			return out, err
		}
		if win.Agent == agentID {
			out.Wins++
			out.Utility += round.Payment + win.Value
		}
		for _, a := range agents {
			a.Apply(p, win.Item, win.Agent)
		}
	}
	out.SystemSavings = schema.Savings()
	return out, nil
}
