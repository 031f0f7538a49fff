package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/online"
	"repro/internal/testutil"
)

// TestClusterStatusFields pins GET /cluster's body on a formed 2-shard
// cluster after one solve: the coordinator's keys, the keys of each of its
// shard rows and a shard's own keys must be exactly the fields DESIGN.md §16
// documents, so a field joins or leaves the body only on purpose. Fields
// that read zero here (forward_errors, last_error, a row's error) are
// omitted from the body.
func TestClusterStatusFields(t *testing.T) {
	testutil.LeakCheck(t)
	p := testutil.MustBuild(testutil.Small(31))
	cfg := online.Config{Seed: 6}
	ctx := context.Background()

	coLis := listen(t)
	var shs []*Shard
	var addrs []string
	for i := 0; i < 2; i++ {
		sh := NewShard(i, p.Cost, ShardConfig{Codec: CodecGob, Controller: cfg, Coordinator: coLis.Addr().String()})
		sh.Serve(listen(t))
		defer sh.Close()
		shs = append(shs, sh)
		addrs = append(addrs, sh.Addr())
	}
	co, err := NewCoordinator(p, addrs, CoordinatorConfig{Codec: CodecGob, Controller: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	co.Serve(coLis)
	if err := co.Form(ctx); err != nil {
		t.Fatal(err)
	}
	if err := co.SolveNow(ctx); err != nil {
		t.Fatal(err)
	}

	type body struct {
		top  map[string]json.RawMessage
		rows []map[string]json.RawMessage
	}
	decode := func(name string, h http.HandlerFunc) body {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", "/cluster", nil))
		var b body
		if err := json.Unmarshal(rec.Body.Bytes(), &b.top); err != nil {
			t.Fatalf("%s: decode %q: %v", name, rec.Body.String(), err)
		}
		if err := json.Unmarshal(b.top["shards"], &b.rows); err != nil {
			t.Fatalf("%s: decode shards %s: %v", name, b.top["shards"], err)
		}
		return b
	}
	check := func(what string, got map[string]json.RawMessage, want ...string) {
		t.Helper()
		var keys []string
		for k := range got {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		slices.Sort(want)
		if !slices.Equal(keys, want) {
			t.Errorf("%s keys %q, want %q", what, keys, want)
		}
	}

	coBody := decode("coordinator", co.HTTPHandler())
	check("coordinator", coBody.top, "role", "assign_version", "epoch_version", "merges", "repartitions", "shards", "payments")
	if len(coBody.rows) != 2 {
		t.Fatalf("coordinator lists %d shards, want 2", len(coBody.rows))
	}
	total := 0
	for _, row := range coBody.rows {
		check("coordinator shard row", row, "id", "addr", "state", "assign", "mode", "members", "metrics")
		var members int
		if err := json.Unmarshal(row["members"], &members); err != nil {
			t.Fatalf("members %s: %v", row["members"], err)
		}
		total += members
	}
	if total != p.M {
		t.Errorf("the rows count %d members in all, want every one of %d servers", total, p.M)
	}

	shBody := decode("shard", shs[1].HTTPHandler())
	check("shard", shBody.top, "role", "assign_version", "epoch_version", "shard", "mode", "shards")
	if len(shBody.rows) != 1 {
		t.Fatalf("shard lists %d coordinators, want 1", len(shBody.rows))
	}
	check("shard's coordinator row", shBody.rows[0], "id", "addr", "state")
}
