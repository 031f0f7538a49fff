package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/distoracle"
	"repro/internal/replication"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Instance shapes of the four workloads. Every one uses the flat G(n, p)
// random family: topology.PowerLaw ranges over a Go map and builds a
// different graph for the same seed, so no workload may use it.
func denseConfig(seed int64) repro.InstanceConfig {
	// The paper's batch question at the BENCH_9/10 cluster scale; M <= 1024
	// keeps the O(1) dense oracle, so candidates and the kernel dominate.
	return repro.InstanceConfig{
		Servers: 1000, Objects: 3000, Requests: 180000, RWRatio: 0.9,
		CapacityPercent: 20, EdgeP: 0.05, Oracle: "dense", Seed: seed,
	}
}

func lazyConfig(seed int64) repro.InstanceConfig {
	// What agtramd -M 1100 runs with default flags: auto picks csr-lazy above
	// 1024 servers, and a 1,100-row working set thrashes the default 256-row
	// LRU. EdgeP gives a mean degree of about 3.
	return repro.InstanceConfig{
		Servers: 1100, Objects: 1100, Requests: 66000, RWRatio: 0.9,
		CapacityPercent: 20, EdgeP: 3.0 / 1099, Seed: seed,
	}
}

func mechanismConfig(seed int64) repro.InstanceConfig {
	// Small enough that 48 agents on loopback TCP finish a game in a few
	// hundred milliseconds.
	return repro.InstanceConfig{
		Servers: 48, Objects: 300, Requests: 48000, RWRatio: 0.9,
		CapacityPercent: 20, EdgeP: 0.3, Seed: seed,
	}
}

// fingerprint identifies a built instance: two builds with equal
// fingerprints ran on the same graph and workload.
type fingerprint struct {
	M, N    int
	Edges   int
	BaseOTC int64
}

// layerBuild is an instance assembled from its layer calls, in the order and
// with the random streams repro.NewInstance uses, so the traced set-up can
// time each layer and still build the instance the untraced run measures.
type layerBuild struct {
	graph *topology.Graph
	fp    fingerprint
}

func buildLayers(tr *tracer, cfg repro.InstanceConfig) (*layerBuild, error) {
	id := tr.begin("workload.synthetic", -1)
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Servers: cfg.Servers, Objects: cfg.Objects, Requests: cfg.Requests,
		RWRatio: cfg.RWRatio, Seed: cfg.Seed,
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	r := stats.NewRNG(stats.Mix64(cfg.Seed, 11))
	id = tr.begin("topology.generate", -1)
	g, err := topology.Random(cfg.Servers, cfg.EdgeP, topology.DefaultWeights, r)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	mode, err := distoracle.ParseMode(cfg.Oracle)
	if err != nil {
		return nil, err
	}
	id = tr.begin("distoracle.build", -1)
	cost, err := distoracle.Build(g, distoracle.Options{Mode: mode, RowCacheRows: cfg.RowCacheRows})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("replication.problem", -1)
	caps, err := replication.GenerateCapacities(w, cfg.CapacityPercent, r)
	if err != nil {
		tr.end(id)
		return nil, err
	}
	p, err := replication.NewProblem(cost, w, caps)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return &layerBuild{
		graph: g,
		fp:    fingerprint{M: p.M, N: p.N, Edges: g.Edges(), BaseOTC: p.NewSchema().TotalCost()},
	}, nil
}

// traceBuild runs the traced set-up's layer build, records the per-layer
// build times, and checks the layer-built instance is the one
// repro.NewInstance builds for the same configuration.
func traceBuild(r *run, cfg repro.InstanceConfig) (*layerBuild, error) {
	inst, err := repro.NewInstance(cfg)
	if err != nil {
		return nil, err
	}
	lb, err := buildLayers(r.tr, cfg)
	if err != nil {
		return nil, fmt.Errorf("layer build: %w", err)
	}
	r.attempted++
	r.fp = &lb.fp
	if lb.fp.M != inst.Servers() || lb.fp.N != inst.Objects() || lb.fp.BaseOTC != inst.BaseOTC() {
		r.fail("layer-built instance %+v differs from repro.NewInstance (M=%d N=%d BaseOTC=%d)",
			lb.fp, inst.Servers(), inst.Objects(), inst.BaseOTC())
	}
	layers := r.tr.layers() // one span per layer so far
	for _, name := range []string{"topology.generate", "workload.synthetic", "distoracle.build", "replication.problem"} {
		r.setLayer(name+"_ms", layers[name].MeanMs, "ms")
	}
	return lb, nil
}

// timed runs f inside a span and returns its wall time.
func timed(tr *tracer, name string, op int, f func() error) (time.Duration, error) {
	id := tr.begin(name, op)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	tr.end(id)
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}
