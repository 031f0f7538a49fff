package online

import (
	"context"
	"encoding/json"
	"errors"
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
// a delta goes to its owner region when that region's mapping already holds
// its server and, for demand, its object — demand and membership deltas to
// the server's region, a remove-object to every region that maps the
// object — and anything else (add-object, a new server id, demand outside
// the owner's mapping, a server no region owns) asks for re-assignment.
// Routing never changes a mapping, and the owner translates a forwarded
// leave to its local server id.
func TestRouteDeltasSplitsByRegion(t *testing.T) {
	snap := &StateSnapshot{
		Capacity: []int64{9, 9, 9, 9, 9, 9, 9, 9},
		Active:   []bool{true, true, true, true, true, true, true, true},
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
	regions := map[int]*CompactRegion{
		0: snap.Compact([]int32{0, 1, 2, 3}), // objects 0, 2, 3
		1: snap.Compact([]int32{4, 5, 6, 7}), // objects 1, 3
	}
	objects := map[int]int{0: len(regions[0].Objects), 1: len(regions[1].Objects)}
	ds := []Delta{
		{Kind: KindDemand, Server: 1, Object: 0, Reads: 1},
		{Kind: KindDemand, Server: 5, Object: 1, Reads: 1},
		{Kind: KindServerLeave, Server: 6},
		{Kind: KindServerJoin, Server: 3, Capacity: 9},
		{Kind: KindRemoveObject, Object: 3},
	}
	per, ok := RouteDeltasCompact(ds, regionOf, regions)
	if !ok {
		t.Fatal("forwardable batch asked for re-assignment")
	}
	want := map[int][]Delta{
		0: {ds[0], ds[3], ds[4]},
		1: {ds[1], ds[2], ds[4]},
	}
	if !reflect.DeepEqual(per, want) {
		t.Fatalf("split = %+v, want %+v", per, want)
	}
	local, err := regions[1].TranslateDeltas(per[1])
	if err != nil {
		t.Fatal(err)
	}
	if l, _ := regions[1].LocalServer(6); local[1].Server != l {
		t.Fatalf("forwarded leave translated to local server %d, want %d", local[1].Server, l)
	}

	for name, d := range map[string]Delta{
		"add-object":                 {Kind: KindAddObject, Size: 4, Primary: 0},
		"join of a new server id":    {Kind: KindServerJoin, Server: 8, Capacity: 9},
		"demand outside the mapping": {Kind: KindDemand, Server: 1, Object: 1, Reads: 1},
		"server no region owns":      {Kind: KindDemand, Server: -1, Object: 0, Reads: 1},
	} {
		if _, ok := RouteDeltasCompact([]Delta{ds[0], d}, regionOf, regions); ok {
			t.Errorf("%s did not ask for re-assignment", name)
		}
	}
	if _, err := regions[0].TranslateDeltas([]Delta{{Kind: KindAddObject, Size: 4, Primary: 0}}); err == nil {
		t.Error("add-object translated into a region")
	}
	for id, n := range objects {
		if got := len(regions[id].Objects); got != n {
			t.Fatalf("routing changed region %d's mapping: %d objects, want %d", id, got, n)
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
// empty rows alike (translation materializes empty rows that the source may
// have left nil).
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

// TestCompactFullMembershipIdentity pins the determinism boundary of the
// compaction: compacting with every server a member yields the identity
// index mappings and a state deep-equal to the exported snapshot. This is
// the property that keeps a 1-shard cluster bit-identical to the single
// daemon.
func TestCompactFullMembershipIdentity(t *testing.T) {
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
	full := snap.Compact(all)
	for i, g := range full.Servers {
		if int(g) != i {
			t.Fatalf("full-membership server mapping is not the identity: Servers[%d] = %d", i, g)
		}
	}
	for k, g := range full.Objects {
		if int(g) != k {
			t.Fatalf("full-membership object mapping is not the identity: Objects[%d] = %d", k, g)
		}
	}
	if !reflect.DeepEqual(full.State, snap) {
		t.Fatal("full-membership compaction changed the snapshot")
	}

	// The compacted controller must follow the single daemon exactly.
	b, err := NewFromCompact(p.Cost, full, Config{Seed: 8})
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
		t.Fatal("full-membership compact controller solved to a different placement")
	}
	if !reflect.DeepEqual(a.LastSolvePayments(), b.LastSolvePayments()) {
		t.Fatal("full-membership compact controller paid differently")
	}
}

// TestCompactRoundTripPlacementsAndPayments pins the translation contract
// the cluster merge depends on: a regional solve over a compacted
// sub-instance translates to global coordinates and back without losing or
// inventing a single replica or payment unit.
// TestMatrixToGlobalDropsOutOfRangeServers feeds the translation a shard
// placement row holding server indices outside the region, negative ones
// included: they are dropped, so a hostile reply cannot panic the merge.
func TestMatrixToGlobalDropsOutOfRangeServers(t *testing.T) {
	comp := &CompactRegion{Servers: []int32{4, 7}, Objects: []int32{2}}
	got := comp.MatrixToGlobal([][]int32{{-1, 0, 1, 2, -1 << 31}}, 3)
	if want := [][]int32{nil, nil, {4, 7}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("MatrixToGlobal = %v, want %v", got, want)
	}
}

func TestCompactRoundTripPlacementsAndPayments(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(53))
	a, err := New(p.Cost, p.Work, p.Capacity, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	snap := a.ExportState()

	members := []int32{1, 3, 4, 7, 9, 12}
	comp := snap.Compact(members)
	if err := comp.State.Validate(); err != nil {
		t.Fatalf("compacted state invalid: %v", err)
	}
	// The mapping covers every member and round-trips in both directions.
	for _, g := range members {
		l, ok := comp.LocalServer(int(g))
		if !ok {
			t.Fatalf("member %d missing from the compacted region", g)
		}
		if back, ok := comp.GlobalServer(l); !ok || back != int(g) {
			t.Fatalf("server %d -> %d -> %d did not round-trip", g, l, back)
		}
	}
	for l := range comp.Objects {
		g, ok := comp.GlobalObject(int32(l))
		if !ok {
			t.Fatalf("local object %d has no global id", l)
		}
		if back, ok := comp.LocalObject(g); !ok || back != int32(l) {
			t.Fatalf("object %d -> %d -> %d did not round-trip", l, g, back)
		}
	}

	ctrl, err := NewFromCompact(p.Cost, comp, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if err := ctrl.SolveNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	local := ctrl.Current().Schema.Matrix()
	global := comp.MatrixToGlobal(local, p.N)
	for g, row := range global {
		if row != nil {
			if _, ok := comp.LocalObject(int32(g)); !ok {
				t.Fatalf("translation invented global object %d", g)
			}
		}
	}
	if back := comp.CarryToLocal(global); !rowsEqual(local, back) {
		t.Fatal("placement did not round-trip through the global translation")
	}

	pay := ctrl.LastSolvePayments()
	if pay == nil {
		t.Fatal("regional solve produced no payments")
	}
	globalPay := make([]int64, p.M)
	comp.PaymentsToGlobal(pay, globalPay)
	var localSum, globalSum int64
	for l, v := range pay {
		localSum += v
		g, _ := comp.GlobalServer(l)
		if globalPay[g] != v {
			t.Fatalf("payment of local server %d (global %d): %d translated to %d", l, g, v, globalPay[g])
		}
	}
	for _, v := range globalPay {
		globalSum += v
	}
	if localSum != globalSum {
		t.Fatalf("payment mass changed in translation: %d -> %d", localSum, globalSum)
	}
}

// FuzzCompactRoundTrip explores Compact over arbitrary snapshots and member
// subsets: the index mappings must stay strictly ascending and bijective,
// member demand must survive translation exactly, placement matrices and
// payment vectors must round-trip through the global coordinates, and the
// full-membership compaction must stay the identity.
// Run with `go test -fuzz=FuzzCompactRoundTrip ./internal/online` to
// explore; the seed corpus runs on every plain `go test`.
func FuzzCompactRoundTrip(f *testing.F) {
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
		// what ExportState and Compact produce for empty catalogues.
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
		var members []int32
		for i := 0; i < m; i++ {
			if memberBits>>(i%16)&1 == 1 {
				member[i] = true
				members = append(members, int32(i))
			}
		}
		if len(members) == 0 {
			i := int(uint64(seed) % uint64(m))
			member[i] = true
			members = append(members, int32(i))
		}

		comp := snap.Compact(members)
		if err := comp.State.Validate(); err != nil {
			t.Fatalf("compacted state invalid: %v", err)
		}
		for l := 1; l < len(comp.Servers); l++ {
			if comp.Servers[l] <= comp.Servers[l-1] {
				t.Fatalf("server mapping not strictly ascending at %d: %v", l, comp.Servers)
			}
		}
		for l := 1; l < len(comp.Objects); l++ {
			if comp.Objects[l] <= comp.Objects[l-1] {
				t.Fatalf("object mapping not strictly ascending at %d: %v", l, comp.Objects)
			}
		}
		for l, g := range comp.Servers {
			if back, ok := comp.LocalServer(int(g)); !ok || back != l {
				t.Fatalf("server %d -> %d -> %d did not round-trip", l, g, back)
			}
			if member[g] {
				if comp.State.Capacity[l] != snap.Capacity[g] {
					t.Fatalf("member %d capacity changed: %d -> %d", g, snap.Capacity[g], comp.State.Capacity[l])
				}
			} else if comp.State.Capacity[l] != 0 {
				t.Fatalf("boundary server %d kept capacity %d", g, comp.State.Capacity[l])
			}
		}
		for _, g := range members {
			if _, ok := comp.LocalServer(int(g)); !ok {
				t.Fatalf("member %d missing from the region", g)
			}
		}
		for l, g := range comp.Objects {
			if back, ok := comp.LocalObject(g); !ok || back != int32(l) {
				t.Fatalf("object %d -> %d -> %d did not round-trip", l, g, back)
			}
			if gp := snap.Primary[g]; comp.Servers[comp.State.Primary[l]] != gp {
				t.Fatalf("object %d primary translated to %d, want %d", g, comp.Servers[comp.State.Primary[l]], gp)
			}
		}

		// Member demand survives translation exactly, in order.
		var back []DemandEntry
		for _, d := range comp.State.Demand {
			gs, ok1 := comp.GlobalServer(d.Server)
			gk, ok2 := comp.GlobalObject(d.Object)
			if !ok1 || !ok2 {
				t.Fatalf("compacted demand %+v references unmapped coordinates", d)
			}
			back = append(back, DemandEntry{Server: gs, Object: gk, Reads: d.Reads, Writes: d.Writes})
		}
		var want []DemandEntry
		for _, d := range snap.Demand {
			if member[d.Server] {
				want = append(want, d)
			}
		}
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("demand did not survive compaction:\n got %v\nwant %v", back, want)
		}

		// An arbitrary regional placement round-trips through the global
		// coordinates, and so does an arbitrary payment vector.
		local := make([][]int32, len(comp.Objects))
		for l := range local {
			if b(l+13)%5 == 0 {
				continue
			}
			row := make([]int32, 0, len(comp.Servers))
			for srv := range comp.Servers {
				if b(l*7+srv+11)%2 == 1 {
					row = append(row, int32(srv))
				}
			}
			local[l] = row
		}
		global := comp.MatrixToGlobal(local, n)
		for g, row := range global {
			if row != nil {
				if _, ok := comp.LocalObject(int32(g)); !ok {
					t.Fatalf("translation invented global object %d", g)
				}
			}
		}
		if got := comp.CarryToLocal(global); !rowsEqual(local, got) {
			t.Fatalf("matrix did not round-trip:\n got %v\nwant %v", got, local)
		}

		pay := make([]int64, len(comp.Servers))
		var localSum int64
		for l := range pay {
			pay[l] = int64(b(l+17) % 100)
			localSum += pay[l]
		}
		globalPay := make([]int64, m)
		comp.PaymentsToGlobal(pay, globalPay)
		var globalSum int64
		for _, v := range globalPay {
			globalSum += v
		}
		if localSum != globalSum {
			t.Fatalf("payment mass changed in translation: %d -> %d", localSum, globalSum)
		}
		for l, v := range pay {
			if globalPay[comp.Servers[l]] != v {
				t.Fatalf("payment of local %d: %d translated to %d", l, v, globalPay[comp.Servers[l]])
			}
		}

		// Full membership: Compact is the identity.
		all := make([]int32, m)
		for i := range all {
			all[i] = int32(i)
		}
		full := snap.Compact(all)
		if len(full.Servers) != m || len(full.Objects) != n {
			t.Fatalf("full-membership compaction kept %dx%d of %dx%d", len(full.Servers), len(full.Objects), m, n)
		}
		if !reflect.DeepEqual(full.State, snap) {
			t.Fatal("full-membership compaction changed the snapshot")
		}
	})
}
