package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/sim"
)

// Every workload instance must be the same graph and workload on every
// same-seed build — the guard against generators that range over Go maps
// (topology.PowerLaw does, which is why no workload uses it).
func TestInstanceFingerprintsRepeat(t *testing.T) {
	configs := map[string]repro.InstanceConfig{
		"solve-dense":   denseConfig(1),
		"solve-lazy":    lazyConfig(1),
		"cluster-churn": denseConfig(clusterInstanceSeed),
		"mechanism-tcp": mechanismConfig(1),
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			if cfg.Topology != "" && cfg.Topology != repro.TopologyRandom {
				t.Fatalf("topology %q: workloads use the deterministic G(n,p) family only", cfg.Topology)
			}
			a, err := buildLayers(newTracer(false), cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := buildLayers(newTracer(false), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.fp != b.fp {
				t.Fatalf("same-seed builds differ: %+v vs %+v", a.fp, b.fp)
			}
			inst, err := repro.NewInstance(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.fp.M != inst.Servers() || a.fp.N != inst.Objects() || a.fp.BaseOTC != inst.BaseOTC() {
				t.Fatalf("layer build %+v differs from repro.NewInstance (M=%d N=%d BaseOTC=%d)",
					a.fp, inst.Servers(), inst.Objects(), inst.BaseOTC())
			}
		})
	}
}

func TestChurnScheduleRepeats(t *testing.T) {
	shape := sim.Shape{Servers: 1000, Objects: 3000, Capacity: make([]int64, 1000)}
	a := churnSchedule(shape, 7, 70)
	b := churnSchedule(shape, 7, 70)
	if len(a) != 70 || !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed delta schedules differ")
	}
	if reflect.DeepEqual(a, churnSchedule(shape, 8, 70)) {
		t.Fatal("different seeds gave the same delta schedule")
	}
	if !reflect.DeepEqual(queryBlock(1000, 3000, 7), queryBlock(1000, 3000, 7)) {
		t.Fatal("same-seed query blocks differ")
	}
}

func TestSolveOrderBalanced(t *testing.T) {
	order := solveOrder(4, 10, 3)
	if !slices.Equal(order, solveOrder(4, 10, 3)) {
		t.Fatal("same-seed orders differ")
	}
	counts := make([]int, 4)
	for _, k := range order {
		counts[k]++
	}
	if !slices.Equal(counts, []int{3, 3, 3, 3}) {
		t.Fatalf("instance visit counts %v, want 3 each", counts)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer(true)
	tr.spans = []span{
		{Name: "parent", Parent: -1, Start: 0, End: 10 * time.Millisecond},
		{Name: "child", Parent: 0, Start: 2 * time.Millisecond, End: 5 * time.Millisecond},
		{Name: "child", Parent: 0, Start: 4 * time.Millisecond, End: 6 * time.Millisecond},
	}
	l := tr.layers()
	if got := l["parent"].SelfMs; got != 6 {
		t.Fatalf("parent self time %v ms, want 6 (children cover 2..6)", got)
	}
	if got := l["child"].MeanMs; got != 2.5 {
		t.Fatalf("child mean %v ms, want 2.5", got)
	}
}

// The metrics main prints must be exactly the ones BENCHMARK.json declares,
// in the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key  string
		json []struct{ Name, Unit string }
		code []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got []metricSpec
		for _, m := range c.json {
			got = append(got, metricSpec{m.Name, m.Unit})
		}
		if !slices.Equal(got, c.code) {
			t.Errorf("BENCHMARK.json %s %v, perfbench prints %v", c.key, got, c.code)
		}
	}
}
