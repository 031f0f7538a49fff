package online

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/distoracle"
	"repro/internal/replication"
	"repro/internal/stats"
	"repro/internal/testutil"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestExportMaskRoundTrip pins the cluster's state-shipping contract: a
// controller rebuilt from an exported snapshot materializes the identical
// problem and solves to the identical placement.
func TestExportMaskRoundTrip(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(31))
	a, err := New(p.Cost, p.Work, p.Capacity, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.ApplyDeltas([]Delta{
		{Kind: KindDemand, Server: 2, Object: 5, Reads: 99, Writes: 3},
		{Kind: KindServerLeave, Server: 7},
	}); err != nil {
		t.Fatal(err)
	}

	snap := a.ExportState()
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := NewFromState(p.Cost, snap, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	pa, pb := a.Current().Problem, b.Current().Problem
	if !reflect.DeepEqual(pa.Capacity, pb.Capacity) {
		t.Fatal("capacities diverged through export")
	}
	if !reflect.DeepEqual(pa.Work, pb.Work) {
		t.Fatal("workloads diverged through export")
	}
	if err := a.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Current().Schema.Matrix(), b.Current().Schema.Matrix()) {
		t.Fatal("rebuilt controller solved to a different placement")
	}
}

// TestStateSnapshotValidate pins the typed rejection of malformed shipped
// state: every broken snapshot fails with an error wrapping
// ErrInvalidState, and NewFromState refuses it before building anything.
func TestStateSnapshotValidate(t *testing.T) {
	valid := func() *StateSnapshot {
		return &StateSnapshot{
			Capacity: []int64{10, 10, 10},
			Active:   []bool{true, true, false},
			Sizes:    []int64{2, 3},
			Primary:  []int32{0, 2},
			Retired:  []bool{false, false},
			Demand: []DemandEntry{
				{Server: 0, Object: 1, Reads: 4},
				{Server: 1, Object: 0, Reads: 1, Writes: 1},
				{Server: 1, Object: 1, Writes: 2},
			},
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(s *StateSnapshot)
	}{
		{"no servers", func(s *StateSnapshot) { s.Capacity, s.Active = nil, nil }},
		{"active length", func(s *StateSnapshot) { s.Active = s.Active[:2] }},
		{"primary length", func(s *StateSnapshot) { s.Primary = s.Primary[:1] }},
		{"retired length", func(s *StateSnapshot) { s.Retired = append(s.Retired, false) }},
		{"negative capacity", func(s *StateSnapshot) { s.Capacity[1] = -1 }},
		{"primary out of range", func(s *StateSnapshot) { s.Primary[0] = 3 }},
		{"zero size", func(s *StateSnapshot) { s.Sizes[1] = 0 }},
		{"server out of range", func(s *StateSnapshot) { s.Demand[2].Server = 3 }},
		{"object out of range", func(s *StateSnapshot) { s.Demand[0].Object = 2 }},
		{"negative reads", func(s *StateSnapshot) { s.Demand[1].Reads = -1 }},
		{"negative writes", func(s *StateSnapshot) { s.Demand[1].Writes = -1 }},
		{"duplicate cell", func(s *StateSnapshot) { s.Demand[2].Object = 0 }},
		{"objects out of order", func(s *StateSnapshot) { s.Demand[1], s.Demand[2] = s.Demand[2], s.Demand[1] }},
		{"servers out of order", func(s *StateSnapshot) { s.Demand[0], s.Demand[1] = s.Demand[1], s.Demand[0] }},
	}
	cost := uniformCost(3)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			tc.mutate(s)
			err := s.Validate()
			if !errors.Is(err, ErrInvalidState) {
				t.Fatalf("Validate = %v, want an ErrInvalidState", err)
			}
			if _, err := NewFromState(cost, s, Config{}); !errors.Is(err, ErrInvalidState) {
				t.Fatalf("NewFromState = %v, want an ErrInvalidState", err)
			}
		})
	}
}

// uniformCost is a unit metric over n servers: c(i, j) = 1 for i != j.
type uniformCost int

func (c uniformCost) At(i, j int) int32 {
	if i == j {
		return 0
	}
	return 1
}

func (c uniformCost) N() int { return int(c) }

// FuzzNewFromState explores the shard's entry point over arbitrary shipped
// state: for every snapshot Validate accepts, NewFromState must build a
// controller whose ExportState equals the input minus its zero-demand
// entries; every other snapshot must be refused with an ErrInvalidState,
// never a panic. Run with `go test -fuzz=FuzzNewFromState ./internal/online`
// to explore; the seed corpus runs on every plain `go test`.
func FuzzNewFromState(f *testing.F) {
	f.Add(uint16(0x0013), []byte{1, 2, 3, 4, 5, 6, 7, 8})             // 3x2, built in order
	f.Add(uint16(0x003e), []byte{9, 9, 9, 2, 250, 19, 3, 4, 5})       // 6x7, built in order
	f.Add(uint16(0x0053), []byte{1, 1, 1, 1, 1, 2, 2, 1, 3, 2, 0, 0}) // raw, ascending, a zero entry
	f.Add(uint16(0x0053), []byte{1, 1, 1, 1, 1, 1, 2, 1})             // raw, duplicate cell
	f.Add(uint16(0x0053), []byte{3, 2, 1, 1, 1, 1, 1, 1})             // raw, servers out of order
	f.Add(uint16(0x0053), []byte{1, 1, 0xfe, 1})                      // raw, negative reads
	f.Add(uint16(0x0010), []byte{7})                                  // no servers

	f.Fuzz(func(t *testing.T, shape uint16, data []byte) {
		b := func(i int) byte {
			if len(data) == 0 {
				return byte(i * 37)
			}
			return data[i%len(data)]
		}
		m := int(shape & 7)    // 0 servers is malformed
		n := int(shape>>3) & 7 // objects
		raw := shape>>6&1 == 1 // demand straight from the bytes: any order, any range
		snap := &StateSnapshot{}
		// Mostly well-formed fields, each with a rare malformed value: a
		// capacity of -1, a size of 0, a primary one past the last server.
		for i := 0; i < m; i++ {
			snap.Capacity = append(snap.Capacity, int64(b(i))-1)
			snap.Active = append(snap.Active, b(i+1)%4 != 0)
		}
		for k := 0; k < n; k++ {
			snap.Sizes = append(snap.Sizes, int64(b(k+2)%17))
			primary := int32(m)
			if v := b(k + 3); v != 255 && m > 0 {
				primary = int32(int(v) % m)
			}
			snap.Primary = append(snap.Primary, primary)
			snap.Retired = append(snap.Retired, b(k+4)%8 == 0)
		}
		if raw {
			for j := 0; j+3 < len(data) && j < 64; j += 4 {
				snap.Demand = append(snap.Demand, DemandEntry{
					Server: int(data[j]%byte(m+2)) - 1, Object: int32(data[j+1]%byte(n+2)) - 1,
					Reads: int64(int8(data[j+2])), Writes: int64(int8(data[j+3])),
				})
			}
		} else {
			for i := 0; i < m; i++ {
				for k := 0; k < n; k++ {
					v := b(i*n + k + 5)
					if v%3 == 0 {
						continue
					}
					snap.Demand = append(snap.Demand, DemandEntry{
						Server: i, Object: int32(k), Reads: int64(v % 5), Writes: int64(v % 4),
					})
				}
			}
		}

		ctrl, err := NewFromState(uniformCost(8), snap, Config{})
		if verr := snap.Validate(); verr != nil {
			if !errors.Is(verr, ErrInvalidState) {
				t.Fatalf("Validate returned an untyped error: %v", verr)
			}
			if !errors.Is(err, ErrInvalidState) {
				t.Fatalf("NewFromState = %v for a snapshot Validate rejects (%v)", err, verr)
			}
			return
		}
		if err != nil {
			t.Fatalf("NewFromState refused a valid snapshot: %v", err)
		}
		defer ctrl.Close()
		want := *snap
		want.Demand = nil
		for _, d := range snap.Demand {
			if d.Reads != 0 || d.Writes != 0 {
				want.Demand = append(want.Demand, d)
			}
		}
		if got := ctrl.ExportState(); !reflect.DeepEqual(got, &want) {
			t.Fatalf("export after import differs:\n got %+v\nwant %+v", got, &want)
		}
	})
}

// TestInstallSchemaPublishesMerge pins the install path the coordinator's
// merge and a shard's assignment carry share: a placement carried onto the
// live problem and installed publishes exactly one epoch with CauseMerge
// and resets drift.
func TestInstallSchemaPublishesMerge(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(37))
	ctrl, err := New(p.Cost, p.Work, p.Capacity, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if err := ctrl.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	cur := ctrl.Current()
	v := cur.Version
	carried, dropped := cur.Problem.CarryOver(cur.Schema.Matrix())
	if dropped != 0 {
		t.Fatalf("feasible placement dropped %d replicas", dropped)
	}
	ctrl.InstallSchema(carried, dropped)
	e := ctrl.Current()
	if e.Version != v+1 {
		t.Fatalf("install published version %d, want %d", e.Version, v+1)
	}
	if e.Cause != CauseMerge {
		t.Fatalf("install cause %q, want %q", e.Cause, CauseMerge)
	}
	if drift := ctrl.Metrics().Drift; drift != 0 {
		t.Fatalf("drift after install = %v, want 0", drift)
	}
}

// TestRouteDeltasSplitsByRegion pins the coordinator's one forwarding rule:
// demand and membership deltas go to the region that owns their server, a
// remove-object to every region, and only add-object, a new server id or a
// server no live region owns ask for re-assignment. Demand for an object no
// member demanded is forwarded like any other, and the owner applies its
// batch as it came. Routing never changes a region.
func TestRouteDeltasSplitsByRegion(t *testing.T) {
	testutil.LeakCheck(t)
	snap := &StateSnapshot{
		Capacity: []int64{9, 9, 9, 9, 9, 9, 9, 9},
		Active:   []bool{true, true, true, false, true, true, true, true},
		Sizes:    []int64{1, 1, 1, 1},
		Primary:  []int32{0, 5, 2, 6},
		Retired:  []bool{false, false, false, false},
		Demand: []DemandEntry{
			{Server: 1, Object: 0, Reads: 3},
			{Server: 2, Object: 3, Reads: 1},
			{Server: 5, Object: 1, Reads: 2},
			{Server: 6, Object: 3, Writes: 1},
		},
	}
	regionOf := func(server int) int {
		switch {
		case server < 0 || server >= 8:
			return -1
		case server < 4:
			return 0
		}
		return 1
	}
	members := map[int][]int32{0: {0, 1, 2, 3}, 1: {4, 5, 6, 7}}
	regions := map[int]*Region{0: snap.Mask(members[0]), 1: snap.Mask(members[1])}
	live := map[int]bool{0: true, 1: true}
	ds := []Delta{
		{Kind: KindDemand, Server: 1, Object: 0, Reads: 1},
		{Kind: KindDemand, Server: 5, Object: 1, Reads: 1},
		{Kind: KindServerLeave, Server: 6},
		{Kind: KindServerJoin, Server: 3, Capacity: 9},
		{Kind: KindRemoveObject, Object: 3},
		{Kind: KindDemand, Server: 1, Object: 1, Reads: 1}, // no member of region 0 demanded object 1
	}
	per, ok := RouteDeltas(ds, regionOf, live)
	if !ok {
		t.Fatal("forwardable batch asked for re-assignment")
	}
	want := map[int][]Delta{
		0: {ds[0], ds[3], ds[4], ds[5]},
		1: {ds[1], ds[2], ds[4]},
	}
	if !reflect.DeepEqual(per, want) {
		t.Fatalf("split = %+v, want %+v", per, want)
	}
	for id, batch := range per {
		ctrl, err := NewFromRegion(uniformCost(8), regions[id], Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctrl.ApplyDeltas(batch); err != nil {
			t.Errorf("region %d refused its forwarded batch: %v", id, err)
		}
		ctrl.Close()
	}

	for name, d := range map[string]Delta{
		"add-object":              {Kind: KindAddObject, Size: 4, Primary: 0},
		"join of a new server id": {Kind: KindServerJoin, Server: 8, Capacity: 9},
		"server no region owns":   {Kind: KindDemand, Server: -1, Object: 0, Reads: 1},
	} {
		if _, ok := RouteDeltas([]Delta{ds[0], d}, regionOf, live); ok {
			t.Errorf("%s did not ask for re-assignment", name)
		}
	}
	if _, ok := RouteDeltas([]Delta{ds[1]}, regionOf, map[int]bool{0: true}); ok {
		t.Error("demand for a server whose region is not live did not ask for re-assignment")
	}
	for id, reg := range regions {
		if !reflect.DeepEqual(reg, snap.Mask(members[id])) {
			t.Fatalf("routing changed region %d", id)
		}
	}
}

// TestMetricsRowCacheSurfaced pins the /metrics satellite: when the cost
// oracle is the lazy CSR with its LRU row cache, the controller's metrics
// expose the hit/miss/eviction counters as row_cache.
func TestMetricsRowCacheSurfaced(t *testing.T) {
	testutil.LeakCheck(t)
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Servers: 16, Objects: 40, Requests: 4000, RWRatio: 0.8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(6)
	g, err := topology.Random(16, 0.3, topology.DefaultWeights, r)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := distoracle.Build(g, distoracle.Options{Mode: distoracle.ModeCSR})
	if err != nil {
		t.Fatal(err)
	}
	caps, err := replication.GenerateCapacities(w, 30, r)
	if err != nil {
		t.Fatal(err)
	}
	p, err := replication.NewProblem(cost, w, caps)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(p.Cost, p.Work, p.Capacity, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if err := ctrl.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := ctrl.Metrics()
	if m.RowCache == nil {
		t.Fatal("metrics over a CSR oracle carry no row_cache")
	}
	if m.RowCache.Hits+m.RowCache.Misses == 0 {
		t.Fatal("row cache counters all zero after a solve")
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded["row_cache"]; !ok {
		t.Fatalf("row_cache missing from metrics JSON: %s", blob)
	}

	// A dense oracle has no counters to surface, and must not fabricate any.
	pd := testutil.MustBuild(testutil.Small(41))
	dense, err := New(pd.Cost, pd.Work, pd.Capacity, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Close()
	if dense.Metrics().RowCache != nil {
		t.Fatal("dense oracle reported a row cache")
	}
}

// rowsEqual compares two placement matrices row by row, treating nil and
// empty rows alike.
func rowsEqual(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestMaskFullMembershipIdentity pins the determinism boundary of the mask:
// masking with every server a member yields every server as a member and a
// state deep-equal to the exported snapshot, and the regional controller
// solves and pays exactly like the controller it was exported from. This is
// the property that keeps a 1-shard cluster bit-identical to the single
// daemon.
func TestMaskFullMembershipIdentity(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(31))
	a, err := New(p.Cost, p.Work, p.Capacity, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.ApplyDeltas([]Delta{
		{Kind: KindDemand, Server: 3, Object: 7, Reads: 12, Writes: 1},
		{Kind: KindServerLeave, Server: 11},
	}); err != nil {
		t.Fatal(err)
	}
	snap := a.ExportState()

	all := make([]int32, p.M)
	for i := range all {
		all[i] = int32(i)
	}
	full := snap.Mask(all)
	if !reflect.DeepEqual(full.Members, all) {
		t.Fatalf("full-membership members = %v, want every server", full.Members)
	}
	if !reflect.DeepEqual(full.State, snap) {
		t.Fatal("full-membership mask changed the snapshot")
	}

	// The regional controller must follow the single daemon exactly.
	b, err := NewFromRegion(p.Cost, full, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Current().Schema.Matrix(), b.Current().Schema.Matrix()) {
		t.Fatal("full-membership regional controller solved to a different placement")
	}
	if !reflect.DeepEqual(a.LastSolvePayments(), b.LastSolvePayments()) {
		t.Fatal("full-membership regional controller paid differently")
	}
}

// TestMaskedRegionPlacesAndPaysOnlyMembers pins what the cluster merge
// takes from a regional solve as it arrives: over a masked region the game
// places surplus replicas and pays only on members, every other server
// stays at its primary load, and the placement, restricted to members by
// Carry, carries back onto the region without losing a replica.
func TestMaskedRegionPlacesAndPaysOnlyMembers(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(53))
	a, err := New(p.Cost, p.Work, p.Capacity, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	reg := a.ExportState().Mask([]int32{1, 3, 4, 7, 9, 12})
	if err := reg.State.Validate(); err != nil {
		t.Fatalf("masked state invalid: %v", err)
	}
	ctrl, err := NewFromRegion(p.Cost, reg, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if err := ctrl.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	sch := ctrl.Current().Schema
	rp := sch.Problem()
	if rp.M != p.M || rp.N != p.N {
		t.Fatalf("regional instance is %dx%d, want the global %dx%d", rp.M, rp.N, p.M, p.N)
	}
	matrix := sch.Matrix()
	placed := 0
	for k, row := range matrix {
		for _, s := range row {
			if s == rp.Work.Primary[k] {
				continue
			}
			if !reg.IsMember(int(s)) {
				t.Fatalf("object %d: surplus replica on non-member %d", k, s)
			}
			placed++
		}
	}
	for s := 0; s < rp.M; s++ {
		if !reg.IsMember(s) && sch.Residual(s) != 0 {
			t.Fatalf("non-member %d has residual %d beyond its primary load", s, sch.Residual(s))
		}
	}
	pay := ctrl.LastSolvePayments()
	if len(pay) != p.M {
		t.Fatalf("payments cover %d servers, want %d", len(pay), p.M)
	}
	paid := 0
	for s, v := range pay {
		if v != 0 {
			if !reg.IsMember(s) {
				t.Fatalf("non-member %d paid %d", s, v)
			}
			paid++
		}
	}
	if placed == 0 || paid == 0 {
		t.Fatalf("regional solve placed %d replicas and paid %d servers; the checks above are vacuous", placed, paid)
	}
	carried, dropped := rp.CarryOver(reg.Carry(matrix))
	if dropped != 0 || !reflect.DeepEqual(carried.Matrix(), matrix) {
		t.Fatalf("placement did not carry back onto the region (%d dropped)", dropped)
	}
}

// FuzzMask explores Mask over arbitrary snapshots and member subsets, the
// members given in any order and with ids outside the snapshot: the masked
// state validates and keeps every id, size, primary, retirement and
// activity flag; members keep their capacity and demand, in order, and
// every other server is zeroed; Members come back ascending; Carry keeps
// exactly the member replicas of any matrix; and full membership is the
// identity. Run with `go test -fuzz=FuzzMask ./internal/online` to explore;
// the seed corpus runs on every plain `go test`.
func FuzzMask(f *testing.F) {
	f.Add(int64(1), uint16(0x000f), []byte{1, 2, 3, 4, 5, 6})
	f.Add(int64(7), uint16(0x00a5), []byte{0xff, 0x00, 0x10, 0x81})
	f.Add(int64(13), uint16(0x0001), []byte{})
	f.Add(int64(42), uint16(0xffff), []byte{9, 9, 9, 2, 250, 17, 3})

	f.Fuzz(func(t *testing.T, seed int64, memberBits uint16, ops []byte) {
		m := 2 + int(uint64(seed)%7)
		n := int(uint64(seed)/7) % 13
		b := func(i int) byte {
			if len(ops) == 0 {
				return byte(i * 31)
			}
			return ops[i%len(ops)]
		}
		snap := &StateSnapshot{
			Capacity: make([]int64, m),
			Active:   make([]bool, m),
		}
		// Append-built so a zero-object snapshot keeps nil slices, matching
		// what ExportState and Mask produce for empty catalogues.
		for k := 0; k < n; k++ {
			snap.Sizes = append(snap.Sizes, 0)
			snap.Primary = append(snap.Primary, 0)
			snap.Retired = append(snap.Retired, false)
		}
		for i := 0; i < m; i++ {
			snap.Capacity[i] = int64(b(i) % 64)
			snap.Active[i] = b(i+1)%4 != 0
		}
		for k := 0; k < n; k++ {
			snap.Sizes[k] = 1 + int64(b(k+2)%16)
			snap.Primary[k] = int32(int(b(k+3)) % m)
			snap.Retired[k] = b(k+4)%8 == 0
		}
		for i := 0; i < m; i++ {
			for k := 0; k < n; k++ {
				v := b(i*n + k + 5)
				if v%3 == 0 {
					continue
				}
				snap.Demand = append(snap.Demand, DemandEntry{
					Server: i, Object: int32(k), Reads: int64(v % 50), Writes: int64(v % 7),
				})
			}
		}
		if err := snap.Validate(); err != nil {
			t.Fatalf("generator built an invalid snapshot: %v", err)
		}

		member := make([]bool, m)
		var want []int32 // the members, ascending
		for i := 0; i < m; i++ {
			if memberBits>>(i%16)&1 == 1 {
				member[i] = true
				want = append(want, int32(i))
			}
		}
		// The members as a caller might pass them: descending, with ids
		// outside the snapshot mixed in.
		var members []int32
		for i := len(want) - 1; i >= 0; i-- {
			members = append(members, want[i])
		}
		if seed&1 == 1 {
			members = append(members, -1, int32(m), math.MaxInt32)
		}

		reg := snap.Mask(members)
		st := reg.State
		if err := st.Validate(); err != nil {
			t.Fatalf("masked state invalid: %v", err)
		}
		if !reflect.DeepEqual(reg.Members, want) {
			t.Fatalf("members = %v, want %v", reg.Members, want)
		}
		if !reflect.DeepEqual(st.Active, snap.Active) || !reflect.DeepEqual(st.Sizes, snap.Sizes) ||
			!reflect.DeepEqual(st.Primary, snap.Primary) || !reflect.DeepEqual(st.Retired, snap.Retired) {
			t.Fatal("mask changed an activity flag, size, primary or retirement")
		}
		if len(st.Capacity) != m {
			t.Fatalf("mask kept %d of %d servers", len(st.Capacity), m)
		}
		for i := -1; i <= m; i++ {
			in := i >= 0 && i < m && member[i]
			if reg.IsMember(i) != in {
				t.Fatalf("IsMember(%d) = %v, want %v", i, !in, in)
			}
			if i < 0 || i >= m {
				continue
			}
			if in && st.Capacity[i] != snap.Capacity[i] {
				t.Fatalf("member %d capacity changed: %d -> %d", i, snap.Capacity[i], st.Capacity[i])
			}
			if !in && st.Capacity[i] != 0 {
				t.Fatalf("non-member %d kept capacity %d", i, st.Capacity[i])
			}
		}
		var demand []DemandEntry
		for _, d := range snap.Demand {
			if member[d.Server] {
				demand = append(demand, d)
			}
		}
		if !reflect.DeepEqual(st.Demand, demand) {
			t.Fatalf("mask kept demand\n%v\nwant the members'\n%v", st.Demand, demand)
		}

		// Carry keeps exactly the member replicas of any matrix, ids outside
		// the snapshot included.
		var matrix, carried [][]int32
		for k := 0; k < n+1; k++ {
			if b(k+13)%5 == 0 {
				matrix, carried = append(matrix, nil), append(carried, nil)
				continue
			}
			var row, kept []int32
			for s := -1; s <= m; s++ {
				if b(k*7+s+12)%2 == 1 {
					row = append(row, int32(s))
					if s >= 0 && s < m && member[s] {
						kept = append(kept, int32(s))
					}
				}
			}
			matrix, carried = append(matrix, row), append(carried, kept)
		}
		if got := reg.Carry(matrix); !rowsEqual(got, carried) {
			t.Fatalf("Carry(%v) = %v, want %v", matrix, got, carried)
		}

		// Full membership: Mask is the identity.
		all := make([]int32, m)
		for i := range all {
			all[i] = int32(i)
		}
		full := snap.Mask(all)
		if !reflect.DeepEqual(full.Members, all) {
			t.Fatalf("full-membership members = %v", full.Members)
		}
		if !reflect.DeepEqual(full.State, snap) {
			t.Fatal("full-membership mask changed the snapshot")
		}
	})
}
