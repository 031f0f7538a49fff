package replication

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Breakdown decomposes the OTC into the three traffic classes of Eqs. 1–2:
// reads to the nearest replica, update shipments to the primary, and the
// primary's broadcast of updates to the other replicators. The components
// always sum to TotalCost.
type Breakdown struct {
	ReadCost      int64 // Σ r_ik · o_k · c(i, NN_ik)
	ShipCost      int64 // Σ w_ik · o_k · c(i, P_k)
	BroadcastCost int64 // Σ w_ik · o_k · Σ_{j∈R_k, j≠i} c(P_k, j)
}

// Total sums the components.
func (b Breakdown) Total() int64 { return b.ReadCost + b.ShipCost + b.BroadcastCost }

// Breakdown computes the OTC decomposition of the current placement.
func (s *Schema) Breakdown() Breakdown {
	p := s.p
	var b Breakdown
	for i := 0; i < p.M; i++ {
		for slot, d := range p.Work.PerServer[i] {
			k := d.Object
			ok := p.Work.ObjectSize[k]
			pk := int(p.Work.Primary[k])
			cell := p.cellBase[i] + int32(slot)
			if d.Reads > 0 {
				b.ReadCost += d.Reads * ok * int64(s.nnCost[cell])
			}
			if d.Writes > 0 {
				b.ShipCost += d.Writes * ok * int64(p.primaryCost[cell])
				var bcast int64
				for _, j := range s.replicas[k] {
					if int(j) != i {
						bcast += int64(p.Cost.At(pk, int(j)))
					}
				}
				b.BroadcastCost += d.Writes * ok * bcast
			}
		}
	}
	return b
}

// ServerReport summarizes one server's role in a placement.
type ServerReport struct {
	Server   int   `json:"server"`
	Capacity int64 `json:"capacity"`
	Used     int64 `json:"used"`
	Primary  int   `json:"primaries"`
	Replicas int   `json:"replicas"`
}

// ObjectReport summarizes one object's replication state.
type ObjectReport struct {
	Object   int32   `json:"object"`
	Size     int64   `json:"size"`
	Primary  int32   `json:"primary"`
	Replicas []int32 `json:"replicas"`
}

// PlacementReport is a JSON-exportable snapshot of a placement: enough to
// reconstruct the replica schema and audit it offline.
type PlacementReport struct {
	Servers   int            `json:"servers"`
	Objects   int            `json:"objects"`
	OTC       int64          `json:"otc"`
	BaseOTC   int64          `json:"base_otc"`
	Savings   float64        `json:"savings_percent"`
	Breakdown Breakdown      `json:"-"`
	PerServer []ServerReport `json:"per_server"`
	PerObject []ObjectReport `json:"per_object"`
}

// Report builds the snapshot.
func (s *Schema) Report() PlacementReport {
	p := s.p
	rep := PlacementReport{
		Servers:   p.M,
		Objects:   p.N,
		OTC:       s.TotalCost(),
		BaseOTC:   s.BaseCost(),
		Savings:   s.Savings(),
		Breakdown: s.Breakdown(),
	}
	primaries := make([]int, p.M)
	replicas := make([]int, p.M)
	used := make([]int64, p.M)
	for k := 0; k < p.N; k++ {
		rep.PerObject = append(rep.PerObject, ObjectReport{
			Object:   int32(k),
			Size:     p.Work.ObjectSize[k],
			Primary:  p.Work.Primary[k],
			Replicas: append([]int32(nil), s.replicas[k]...),
		})
		for _, j := range s.replicas[k] {
			used[j] += p.Work.ObjectSize[k]
			if j == p.Work.Primary[k] {
				primaries[j]++
			} else {
				replicas[j]++
			}
		}
	}
	for i := 0; i < p.M; i++ {
		rep.PerServer = append(rep.PerServer, ServerReport{
			Server:   i,
			Capacity: p.Capacity[i],
			Used:     used[i],
			Primary:  primaries[i],
			Replicas: replicas[i],
		})
	}
	return rep
}

// WriteJSON serializes the report.
func (r PlacementReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ErrInvalidPlacement marks a placement file that ReadPlacement cannot
// parse or that Restore cannot rebuild on the problem: every error either
// returns wraps it (errors.Is). A placement file comes from outside the
// program (agtramd -snapshot), so a bad one is a typed error, never a
// panic.
var ErrInvalidPlacement = errors.New("replication: invalid placement report")

// ReadPlacement parses a report written by WriteJSON. The input must be a
// single JSON document: trailing garbage after it is rejected, so a
// truncated-then-concatenated or otherwise corrupted file cannot silently
// pass as a valid report.
func ReadPlacement(r io.Reader) (PlacementReport, error) {
	var rep PlacementReport
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return rep, fmt.Errorf("%w: decoding: %w", ErrInvalidPlacement, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return PlacementReport{}, fmt.Errorf("%w: trailing data after the document", ErrInvalidPlacement)
	}
	return rep, nil
}

// Restore rebuilds a schema from a report's per-object replica sets against
// a compatible problem: same shape, same primaries. The schema is the one
// CarryOver builds from those sets, and a report from which the carry drops
// any replica — out of range, listed twice, or past a server's capacity —
// is refused.
func (p *Problem) Restore(rep PlacementReport) (*Schema, error) {
	if rep.Servers != p.M || rep.Objects != p.N {
		return nil, fmt.Errorf("%w: shape %dx%d does not match problem %dx%d",
			ErrInvalidPlacement, rep.Servers, rep.Objects, p.M, p.N)
	}
	matrix := make([][]int32, p.N)
	seen := make([]bool, p.N)
	for _, obj := range rep.PerObject {
		if obj.Object < 0 || int(obj.Object) >= p.N {
			return nil, fmt.Errorf("%w: references object %d", ErrInvalidPlacement, obj.Object)
		}
		if seen[obj.Object] {
			return nil, fmt.Errorf("%w: lists object %d twice", ErrInvalidPlacement, obj.Object)
		}
		seen[obj.Object] = true
		if p.Work.Primary[obj.Object] != obj.Primary {
			return nil, fmt.Errorf("%w: object %d primary mismatch: report %d, problem %d",
				ErrInvalidPlacement, obj.Object, obj.Primary, p.Work.Primary[obj.Object])
		}
		matrix[obj.Object] = obj.Replicas
	}
	s, dropped := p.CarryOver(matrix)
	if dropped > 0 {
		return nil, fmt.Errorf("%w: %d replicas do not fit the problem", ErrInvalidPlacement, dropped)
	}
	return s, nil
}

// TopLoadedServers returns the n servers with the highest storage
// utilization (used/capacity), busiest first.
func (r PlacementReport) TopLoadedServers(n int) []ServerReport {
	out := append([]ServerReport(nil), r.PerServer...)
	sort.Slice(out, func(a, b int) bool {
		ua := float64(out[a].Used) / float64(out[a].Capacity)
		ub := float64(out[b].Used) / float64(out[b].Capacity)
		if ua != ub {
			return ua > ub
		}
		return out[a].Server < out[b].Server
	})
	if n > len(out) {
		n = len(out)
	}
	return out[:n]
}
