package replication

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/topology"
	"repro/internal/workload"
)

// fuzzCost is a deterministic symmetric cost oracle with a zero diagonal
// and enough irregularity that nearest-neighbor choices actually move
// around as replicas are placed and removed.
type fuzzCost struct{ n int }

func (c fuzzCost) At(i, j int) int32 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	d := int32(j - i)
	return 1 + d*3 + int32((i*7+j*13)%5)
}

func (c fuzzCost) N() int { return c.n }

// fuzzProblem draws M from the seed, over 4..32 servers. The synthetic
// workload spreads each object over about M/4 servers, so at small M every
// object has one or two demanders and a co-demander block (d_k² ≤ M),
// while at large M the most-demanded objects go without one: seeds 20 and
// 28 place both kinds.
func fuzzProblem(t testing.TB, seed int64) *Problem {
	const n = 14
	m := 4 + int((seed%29+29)%29)
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Servers: m, Objects: n, Requests: 900, RWRatio: 0.8, Seed: seed,
	})
	if err != nil {
		t.Skip("infeasible synthetic workload:", err)
	}
	caps := make([]int64, m)
	total := w.TotalPrimarySize()
	for i := range caps {
		// Enough headroom that placements succeed often, small enough that
		// capacity pruning is exercised too.
		caps[i] = total/2 + int64(i)*3
	}
	p, err := NewProblem(fuzzCost{n: m}, w, caps)
	if err != nil {
		t.Skip("infeasible problem:", err)
	}
	return p
}

// FuzzSchemaPlaceRemove interleaves random PlaceReplica/RemoveReplica calls
// and cross-checks every piece of incremental bookkeeping the solvers lean
// on: the returned deltas against the preview Delta* forms, the running
// cost against both the per-op delta sum and a from-scratch recomputation,
// and the full invariant sweep (NN tables, capacity accounting, replica
// sets) at the end. Run with
// `go test -fuzz=FuzzSchemaPlaceRemove ./internal/replication` to explore;
// the seed corpus runs on every plain `go test`.
func FuzzSchemaPlaceRemove(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x12, 0x81, 0x23, 0x05, 0x31})
	f.Add(int64(2), []byte{0x10, 0x01, 0x90, 0x01, 0x10, 0x01, 0x90, 0x01})
	f.Add(int64(3), []byte{})
	f.Add(int64(4), []byte{0xff, 0xff, 0x7f, 0x00, 0x42, 0x42, 0x13, 0x37, 0x99, 0x21})
	f.Add(int64(20), []byte{0x00, 0x03, 0x11, 0x02, 0x05, 0x17, 0x00, 0x09, 0x1d, 0x01, 0x05, 0x17, 0x00, 0x0c, 0x02})
	f.Add(int64(28), []byte{0x00, 0x01, 0x1f, 0x02, 0x01, 0x05, 0x00, 0x07, 0x0e, 0x00, 0x0a, 0x13, 0x03, 0x01, 0x1f})

	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		p := fuzzProblem(t, seed%64)
		s := p.NewSchema()
		running := s.TotalCost()
		for len(ops) >= 3 {
			op, kb, mb := ops[0], ops[1], ops[2]
			ops = ops[3:]
			k := int32(int(kb) % p.N)
			m := int(mb) % p.M
			if op&1 == 0 {
				if s.CanPlace(k, m) != nil {
					continue
				}
				preview := s.DeltaIfPlaced(k, m)
				delta, err := s.PlaceReplica(k, m)
				if err != nil {
					t.Fatalf("CanPlace passed but PlaceReplica(%d,%d) failed: %v", k, m, err)
				}
				if delta != preview {
					t.Fatalf("PlaceReplica(%d,%d) delta %d != DeltaIfPlaced %d", k, m, delta, preview)
				}
				running += delta
			} else {
				if s.CanRemove(k, m) != nil {
					continue
				}
				preview := s.DeltaIfRemoved(k, m)
				delta, err := s.RemoveReplica(k, m)
				if err != nil {
					t.Fatalf("CanRemove passed but RemoveReplica(%d,%d) failed: %v", k, m, err)
				}
				if delta != preview {
					t.Fatalf("RemoveReplica(%d,%d) delta %d != DeltaIfRemoved %d", k, m, delta, preview)
				}
				running += delta
			}
			if got := s.TotalCost(); got != running {
				t.Fatalf("incremental cost %d drifted from delta sum %d", got, running)
			}
		}
		if got, want := s.TotalCost(), s.RecomputeCost(); got != want {
			t.Fatalf("incremental cost %d != recomputed %d", got, want)
		}
		if err := s.ValidateInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzRestorePlacement feeds the daemon's snapshot path arbitrary files:
// ReadPlacement, then Restore onto three tiny instances: a line with room
// for every copy, the same line where servers refuse some, and a ring
// where the order of a report's replicas decides a nearest-replica tie.
// Restore is held to restoreReference: a report that passes the report
// checks and from which carryReference drops nothing must be accepted, as
// exactly the schema carryReference builds — matrix, OTC, placed count,
// residuals, and every demand cell's NN cost and NN server — and pass
// ValidateInvariants. Every other input must end in an error wrapping
// ErrInvalidPlacement, never a panic. Run with
// `go test -fuzz=FuzzRestorePlacement ./internal/replication` to explore;
// the seed corpus runs on every plain `go test`.
func FuzzRestorePlacement(f *testing.F) {
	problems := []struct {
		name string
		p    *Problem
	}{
		{"line, capacity 10", tinyProblem(f, 10)},
		{"line, capacity 2", tinyProblem(f, 2)},
		{"ring", ringProblem(f)},
	}
	s := problems[0].p.NewSchema()
	if _, err := s.PlaceReplica(1, 0); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Report().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"servers":3,"objects":2,"per_object":[{"object":1,"primary":2,"replicas":[2,-1]}]}`))
	f.Add([]byte(`{"servers":3,"objects":2,"per_object":[{"object":0,"primary":0,"replicas":[1,1]}]}`))
	f.Add([]byte(`{"servers":3,"objects":2,"per_object":[{"object":2,"primary":0}]}`))
	f.Add([]byte(`{"servers":3,"objects":2} {}`))
	f.Add([]byte("not json"))
	// Objects out of order, unsorted rows and a repeated primary: every copy
	// fits at capacity 10, while at capacity 2 only one of the four does.
	f.Add([]byte(`{"servers":3,"objects":2,"per_object":[{"object":1,"primary":2,"replicas":[1,2,0]},{"object":0,"primary":0,"replicas":[2,0,1,0]}]}`))
	// On the ring, server 2's nearest copy of object 0 is the one on 3,
	// listed before the equally near copy on 1.
	f.Add([]byte(`{"servers":4,"objects":2,"per_object":[{"object":0,"primary":0,"replicas":[3,1]},{"object":1,"primary":1,"replicas":[3]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReadPlacement(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrInvalidPlacement) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		for _, pr := range problems {
			got, err := pr.p.Restore(rep)
			want, ok := restoreReference(pr.p, rep)
			if !ok {
				if !errors.Is(err, ErrInvalidPlacement) {
					t.Fatalf("%s: Restore returned %v, want an error wrapping ErrInvalidPlacement", pr.name, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: Restore refused a report the reference carries whole: %v", pr.name, err)
			}
			if !reflect.DeepEqual(got.Matrix(), want.Matrix()) {
				t.Fatalf("%s: matrix %v, reference %v", pr.name, got.Matrix(), want.Matrix())
			}
			if got.TotalCost() != want.TotalCost() || got.Placed() != want.Placed() {
				t.Fatalf("%s: OTC %d placed %d, reference %d and %d",
					pr.name, got.TotalCost(), got.Placed(), want.TotalCost(), want.Placed())
			}
			for name, pair := range map[string][2]any{
				"residuals":  {got.residual, want.residual},
				"NN costs":   {got.nnCost, want.nnCost},
				"NN servers": {got.nnServer, want.nnServer},
			} {
				if !reflect.DeepEqual(pair[0], pair[1]) {
					t.Fatalf("%s: %s %v, reference %v", pr.name, name, pair[0], pair[1])
				}
			}
			if err := got.ValidateInvariants(); err != nil {
				t.Fatalf("%s: restored schema: %v", pr.name, err)
			}
		}
	})
}

// ringProblem is a ring of four servers with unit links. Server 2 reads
// object 0, whose primary is two hops away on server 0, so copies on
// servers 1 and 3 tie for its nearest replica and the order they are
// placed in decides which one its NN server names.
func ringProblem(t testing.TB) *Problem {
	t.Helper()
	w := workload.New(4, 2)
	w.ObjectSize[0], w.ObjectSize[1] = 1, 1
	w.Primary[0], w.Primary[1] = 0, 1
	w.PerServer[2] = []workload.Demand{{Object: 0, Reads: 5}, {Object: 1, Reads: 3}}
	w.PerServer[3] = []workload.Demand{{Object: 1, Writes: 1}}
	w.Finalize()
	p, err := NewProblem(topology.AllPairs(topology.Ring(4), 1), w, []int64{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// restoreReference checks a report as Restore must — the problem's shape,
// each object in range and listed once, its primary the problem's — then
// carries the report's replica sets with carryReference. ok is false when
// a check fails or the carry drops a replica.
func restoreReference(p *Problem, rep PlacementReport) (s *Schema, ok bool) {
	if rep.Servers != p.M || rep.Objects != p.N {
		return nil, false
	}
	matrix := make([][]int32, p.N)
	listed := map[int32]bool{}
	for _, obj := range rep.PerObject {
		if obj.Object < 0 || int(obj.Object) >= p.N || listed[obj.Object] || obj.Primary != p.Work.Primary[obj.Object] {
			return nil, false
		}
		listed[obj.Object] = true
		matrix[obj.Object] = obj.Replicas
	}
	s, dropped := carryReference(p, matrix)
	return s, dropped == 0
}

// carryReference is CarryOver as it was before its two passes: one
// PlaceReplica per replica in (object, row) order, each failure counted as
// a drop. FuzzCarryOver holds the two-pass carry to it.
func carryReference(p *Problem, matrix [][]int32) (*Schema, int) {
	s := p.NewSchema()
	dropped := 0
	for k, servers := range matrix {
		if k >= p.N {
			break
		}
		for _, m := range servers {
			if p.Work.Primary[k] == m {
				continue
			}
			if _, err := s.PlaceReplica(int32(k), int(m)); err != nil {
				dropped++
			}
		}
	}
	return s, dropped
}

// FuzzCarryOver carries arbitrary replica matrices — duplicates, primaries,
// negative and out-of-range ids, unsorted rows and rows past N — onto a
// fuzzProblem instance whose capacities the input scales from the primary
// load alone (every surplus replica dropped) up to fuzzProblem's headroom.
// The two-pass CarryOver must build exactly the schema carryReference
// builds: the drop count, the matrix, the OTC, the placed count, every
// residual and broadcast sum, and the NN cost and NN server of every demand
// cell. A shard's assign carry arrives over the wire in this form. Run with
// `go test -fuzz=FuzzCarryOver ./internal/replication` to explore; the seed
// corpus runs on every plain `go test`.
func FuzzCarryOver(f *testing.F) {
	f.Add(int64(1), byte(255), []byte{3, 8, 9, 10, 2, 9, 9, 4, 0, 1, 2, 3})
	f.Add(int64(20), byte(40), []byte{5, 12, 3, 30, 7, 7, 5, 44, 0, 12, 47, 1, 6, 9, 9, 9, 9, 9, 9})
	f.Add(int64(28), byte(0), []byte{4, 1, 2, 3, 4, 4, 5, 6, 7, 8})
	f.Add(int64(7), byte(90), []byte{})
	f.Add(int64(13), byte(200), []byte{7, 20, 19, 18, 17, 16, 15, 14, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 1, 2, 3, 4, 5, 6, 7})
	// Object 0 lists server 3 three times around its primary, server 1, on
	// servers with room for every copy: only the duplicate check drops two.
	f.Add(int64(13), byte(255), []byte{4, 11, 11, 9, 11})
	// Server 0 has room for exactly one copy of object 2: the first fits to
	// the unit, the duplicate and object 3's copy find no room.
	f.Add(int64(1), byte(5), []byte{0, 0, 2, 8, 8, 1, 8})

	f.Fuzz(func(t *testing.T, seed int64, headroom byte, data []byte) {
		loose := fuzzProblem(t, seed%64)
		caps := make([]int64, loose.M)
		for i := range caps {
			caps[i] = loose.PrimaryLoad(i) + (loose.Capacity[i]-loose.PrimaryLoad(i))*int64(headroom)/255
		}
		p, err := NewProblem(loose.Cost, loose.Work, caps)
		if err != nil {
			t.Fatal(err)
		}
		// Each row is a length byte (0..7) and that many server bytes, each
		// mapped onto [-8, 40): negative, in range and past M (at most 32).
		var matrix [][]int32
		for len(data) > 0 {
			n := min(int(data[0]%8), len(data)-1)
			row := make([]int32, n)
			for j, b := range data[1 : 1+n] {
				row[j] = int32(b%48) - 8
			}
			matrix = append(matrix, row)
			data = data[1+n:]
		}

		got, gotDropped := p.CarryOver(matrix)
		want, wantDropped := carryReference(p, matrix)
		if gotDropped != wantDropped {
			t.Fatalf("dropped %d, reference %d", gotDropped, wantDropped)
		}
		if !reflect.DeepEqual(got.Matrix(), want.Matrix()) {
			t.Fatalf("matrix %v, reference %v", got.Matrix(), want.Matrix())
		}
		if got.TotalCost() != want.TotalCost() || got.Placed() != want.Placed() {
			t.Fatalf("OTC %d placed %d, reference %d and %d", got.TotalCost(), got.Placed(), want.TotalCost(), want.Placed())
		}
		for name, pair := range map[string][2]any{
			"residuals":      {got.residual, want.residual},
			"broadcast sums": {got.sumBcast, want.sumBcast},
			"NN costs":       {got.nnCost, want.nnCost},
			"NN servers":     {got.nnServer, want.nnServer},
		} {
			if !reflect.DeepEqual(pair[0], pair[1]) {
				t.Fatalf("%s %v, reference %v", name, pair[0], pair[1])
			}
		}
		if err := got.ValidateInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
