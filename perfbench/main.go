// Command perfbench is the repository benchmark. It runs one of four
// deterministic workloads against the program's public functions and prints,
// as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured untraced; with
// --trace 1 they are the per-layer set from a run that records a span around
// every layer call the benchmark makes. Every metric of the workload — the
// ones in BENCHMARK.json and the workload-specific ones — is printed to
// standard error as a "perfbench-detail" JSON line. --workload all runs every
// workload untraced and traced in child processes and prints one table of
// every metric with its unit, plus the tracing overhead.
//
// See README.md in this directory for the workloads and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is everything a run measured, for humans and for --workload all.
type detail struct {
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Traced      bool                 `json:"traced"`
	Ops         int                  `json:"ops"`
	Host        *host                `json:"host"`
	EndToEnd    map[string]metric    `json:"end_to_end"`
	PerLayer    map[string]metric    `json:"per_layer"`
	Layers      map[string]layerStat `json:"spans,omitempty"`
	Failures    []string             `json:"failures,omitempty"`
	Fingerprint *fingerprint         `json:"fingerprint,omitempty"`
}

// metricSpec is one metric BENCHMARK.json lists.
type metricSpec struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json lists, with their
// units; every workload reports each of them (TestMetricsMatchBenchmarkJSON
// keeps the two in step). Layers a workload bypasses report zero counts;
// every time listed here is measured on every workload. Workload-specific
// metrics go to the detail line only.
var (
	endToEnd = []metricSpec{
		{"setup_s", "s"}, {"solve_p50_ms", "ms"}, {"ops_per_s", "1/s"},
		{"savings_pct", "%"}, {"peak_rss_mib", "MiB"},
	}
	perLayer = []metricSpec{
		{"topology.generate_ms", "ms"}, {"workload.synthetic_ms", "ms"}, {"distoracle.build_ms", "ms"},
		{"replication.problem_ms", "ms"}, {"setup.first_solve_ms", "ms"}, {"candidates.arena_ms", "ms"},
		{"distoracle.miss_us", "us"}, {"distoracle.hit_ns", "ns"},
		{"agtram.valuations", "count"}, {"agtram.rounds", "count"}, {"agtram.replicas", "count"},
		{"agtram.evictions", "count"}, {"distoracle.row_misses", "count"}, {"distoracle.row_hits", "count"},
		{"cluster.reassigns", "count"}, {"cluster.assign_bytes", "B"},
		{"online.journal_len", "count"}, {"online.carried_drops", "count"},
		{"process.cpu_ms", "ms"}, {"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"},
	}
)

// run is the state one workload invocation accumulates.
type run struct {
	workload string
	seed     int64
	seconds  int
	tr       *tracer
	host     *host

	attempted int
	failures  []string
	e2e       map[string]metric
	layer     map[string]metric
	fp        *fingerprint
	ops       int
}

// fail records a failed output check; it counts into `failed`.
func (r *run) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *run) setE2E(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }

// minTailSamples is the sample count below which a run reports no p90: with
// fewer, the p90 is the run's slowest one or two operations.
const minTailSamples = 100

// setLatency reports a latency series in ms as <prefix>_p50_ms, plus
// <prefix>_p90_ms when the run holds at least minTailSamples of them.
func (r *run) setLatency(prefix string, ms []float64) {
	r.setE2E(prefix+"_p50_ms", quantile(ms, 0.5), "ms")
	if len(ms) >= minTailSamples {
		r.setE2E(prefix+"_p90_ms", quantile(ms, 0.9), "ms")
	}
}
func (r *run) setLayer(name string, v float64, unit string) {
	r.layer[name] = metric{v, unit}
}

// opCount sizes a workload's fixed schedule: the run length times the
// workload's nominal rate on the reference host (2 vCPU). The schedule never
// depends on elapsed time, so counts and savings repeat exactly.
func (r *run) opCount(perSecond float64, minOps int) int {
	n := int(float64(r.seconds)*perSecond + 0.5)
	return max(n, minOps)
}

type workloadFn func(r *run) error

var workloads = map[string]workloadFn{
	"solve-dense":   runSolveDense,
	"solve-lazy":    runSolveLazy,
	"cluster-churn": runClusterChurn,
	"mechanism-tcp": runMechanismTCP,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// settleFor is the untimed all-core spin before the timed set-up: on a
// host that sat idle, set-up measured about twice its warm time.
const settleFor = time.Second

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "workload seed (same seed, same inputs)")
	seconds := flag.Int("seconds", 10, "run length; sizes the fixed operation schedule")
	traced := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if *traced != 0 && *traced != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds))
	}
	fn, ok := workloads[*name]
	if !ok {
		fatalf("unknown --workload %q (want %s or all)", *name, strings.Join(workloadNames(), ", "))
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		tr:       newTracer(*traced == 1),
		host:     startHost(),
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
	}
	settle(settleFor)
	if err := fn(r); err != nil {
		fatalf("%s: %v", *name, err)
	}
	r.host.finish()
	if rss, err := peakRSSMiB(); err == nil {
		r.setE2E("peak_rss_mib", rss, "MiB")
	} else {
		r.fail("peak RSS: %v", err)
	}
	r.setE2E("failed_pct", 100*float64(len(r.failures))/float64(max(r.attempted, 1)), "%")

	d := detail{
		Workload: r.workload, Seed: r.seed, Traced: r.tr.on, Ops: r.ops, Host: r.host,
		EndToEnd: r.e2e, PerLayer: r.layer, Failures: r.failures, Fingerprint: r.fp,
	}
	if r.tr.on {
		d.Layers = r.tr.layers()
	}
	names, values := endToEnd, r.e2e
	if r.tr.on {
		names, values = perLayer, r.layer
	}
	out := result{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: len(r.failures), Metrics: map[string]metric{}}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	for _, spec := range names {
		m, ok := values[spec.name]
		if !ok || m.Unit != spec.unit {
			fatalf("%s: metric %s was not measured in %s", r.workload, spec.name, spec.unit)
		}
		out.Metrics[spec.name] = m
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	writeJSONLine(os.Stderr, "perfbench-detail ", d)
	writeJSONLine(os.Stdout, "", out)
	if !out.Correct {
		os.Exit(1)
	}
}

func writeJSONLine(f *os.File, prefix string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Fprintf(f, "%s%s\n", prefix, b)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
