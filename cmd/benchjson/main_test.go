package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkAGTRAMEnginesLarge/incremental-8         	      20	   3237119 ns/op	      6288 valuations/op	  721760 B/op	      51 allocs/op
BenchmarkAGTRAMEnginesLarge/sync-8                	       5	   48013210 ns/op	 8123456 valuations/op	 9923840 B/op	 120031 allocs/op
BenchmarkAGTRAMEnginesLarge/incremental-w4-8      	      20	   3301200 ns/op	      6290 valuations/op	  721800 B/op	      51 allocs/op
BenchmarkSolve/agtram                             	     100	    911234 ns/op	      4521 valuations/op
PASS
ok  	repro	12.3s
`

func TestParse(t *testing.T) {
	art, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(art.Benchmarks))
	}
	by := map[string]Benchmark{}
	for _, b := range art.Benchmarks {
		by[b.Name] = b
	}
	inc := by["AGTRAMEnginesLarge/incremental"]
	if inc.NsPerOp != 3237119 || inc.Procs != 8 || inc.Iterations != 20 {
		t.Fatalf("incremental parsed wrong: %+v", inc)
	}
	if inc.Metrics["allocs/op"] != 51 || inc.Metrics["valuations/op"] != 6288 {
		t.Fatalf("incremental metrics wrong: %+v", inc.Metrics)
	}
	w4 := by["AGTRAMEnginesLarge/incremental-w4"]
	if w4.Workers != 4 {
		t.Fatalf("worker suffix not parsed: %+v", w4)
	}
	// The -8 procs tag must not be mistaken for a worker count.
	if inc.Workers != 0 {
		t.Fatalf("default-engine run got workers=%d, want 0", inc.Workers)
	}
	solve := by["Solve/agtram"]
	if solve.Procs != 0 || solve.NsPerOp != 911234 {
		t.Fatalf("untagged benchmark parsed wrong: %+v", solve)
	}
}

func writeArtifact(t *testing.T, dir, name string, art Artifact) string {
	t.Helper()
	data, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeArtifact(t, dir, "old.json", Artifact{Benchmarks: []Benchmark{
		{Name: "A", NsPerOp: 1000, Metrics: map[string]float64{"allocs/op": 10}},
		{Name: "B", NsPerOp: 2000, Metrics: map[string]float64{"routes/s": 6500}},
		{Name: "Gone", NsPerOp: 5},
	}})

	// Within threshold: +10% on A, improvement on B, one new benchmark with
	// a routing-throughput metric.
	newOK := writeArtifact(t, dir, "new_ok.json", Artifact{Benchmarks: []Benchmark{
		{Name: "A", NsPerOp: 1100, Metrics: map[string]float64{"allocs/op": 0}},
		{Name: "B", NsPerOp: 900, Metrics: map[string]float64{"routes/s": 450000}},
		{Name: "New", NsPerOp: 7, Metrics: map[string]float64{"routes/s": 80.6e6}},
	}})
	var sb strings.Builder
	code, err := runCompare(&sb, oldPath, newOK, 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d on a within-threshold comparison:\n%s", code, sb.String())
	}
	for _, want := range []string{"| A |", "+10.0%", "-55.0%", "| New | — |", "10 → 0", "80.6M", "6.5k → 450.0k"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, sb.String())
		}
	}

	// Beyond threshold: +50% on B must fail.
	newBad := writeArtifact(t, dir, "new_bad.json", Artifact{Benchmarks: []Benchmark{
		{Name: "A", NsPerOp: 1000},
		{Name: "B", NsPerOp: 3000},
	}})
	sb.Reset()
	code, err = runCompare(&sb, oldPath, newBad, 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("exit code %d on a regressed comparison, want 2:\n%s", code, sb.String())
	}
	if !strings.Contains(sb.String(), "1 benchmark(s) regressed") {
		t.Fatalf("report missing regression summary:\n%s", sb.String())
	}
}

func TestCompareMissingFile(t *testing.T) {
	if _, err := runCompare(&strings.Builder{}, "does-not-exist.json", "also-missing.json", 15, nil); err == nil {
		t.Fatal("comparing missing files succeeded")
	}
}

// TestCompareGatedMetrics pins the widened gate: a regression in a gated
// b.ReportMetric unit fails the compare even when ns/op held steady, while
// regressions in unlisted metrics and metrics without a baseline do not.
func TestCompareGatedMetrics(t *testing.T) {
	dir := t.TempDir()
	gates := []string{"region-solve-ns", "assign-bytes"}
	oldPath := writeArtifact(t, dir, "old.json", Artifact{Benchmarks: []Benchmark{
		{Name: "ClusterSolve/shards=4", NsPerOp: 16e6, Metrics: map[string]float64{
			"region-solve-ns": 1.4e6, "assign-bytes": 266000, "merge-ns": 9e6,
		}},
	}})

	// Within threshold on both gated units; merge-ns doubling is not gated.
	newOK := writeArtifact(t, dir, "new_ok.json", Artifact{Benchmarks: []Benchmark{
		{Name: "ClusterSolve/shards=4", NsPerOp: 16.1e6, Metrics: map[string]float64{
			"region-solve-ns": 1.5e6, "assign-bytes": 270000, "merge-ns": 18e6,
		}},
	}})
	var sb strings.Builder
	code, err := runCompare(&sb, oldPath, newOK, 15, gates)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d with gated metrics within threshold:\n%s", code, sb.String())
	}
	for _, want := range []string{"Gated metrics: region-solve-ns, assign-bytes", "region-solve-ns: 1400000 → 1500000"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, sb.String())
		}
	}

	// Regional solve blowing up by 2x must fail even with ns/op flat.
	newBad := writeArtifact(t, dir, "new_bad.json", Artifact{Benchmarks: []Benchmark{
		{Name: "ClusterSolve/shards=4", NsPerOp: 16e6, Metrics: map[string]float64{
			"region-solve-ns": 2.8e6, "assign-bytes": 266000,
		}},
	}})
	sb.Reset()
	code, err = runCompare(&sb, oldPath, newBad, 15, gates)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("exit code %d on a gated-metric regression, want 2:\n%s", code, sb.String())
	}
	if !strings.Contains(sb.String(), "1 benchmark(s) regressed") {
		t.Fatalf("report missing regression summary:\n%s", sb.String())
	}

	// A gated unit with no baseline (new on the PR side) never gates.
	newFresh := writeArtifact(t, dir, "new_fresh.json", Artifact{Benchmarks: []Benchmark{
		{Name: "ClusterSolve/shards=4", NsPerOp: 16e6, Metrics: map[string]float64{
			"assign-bytes": 266000, "wire-bytes": 1e9,
		}},
	}})
	sb.Reset()
	code, err = runCompare(&sb, oldPath, newFresh, 15, append(gates, "wire-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d when the gated unit has no baseline:\n%s", code, sb.String())
	}
}

// TestWorkflowCompareCommand runs the compare exactly as the CI workflow
// invokes it, flags after the two paths, on two identical artifacts: it
// must print the table and pass.
func TestWorkflowCompareCommand(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	const cmd = "go run ./cmd/benchjson "
	var line string
	for _, l := range strings.Split(string(ci), "\n") {
		if strings.Contains(l, cmd+"-compare") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("ci.yml has no %q line", cmd+"-compare")
	}
	line, _, _ = strings.Cut(line[strings.Index(line, cmd)+len(cmd):], "|")

	dir := t.TempDir()
	art := Artifact{Benchmarks: []Benchmark{
		{Name: "ClusterSolve/shards=2", NsPerOp: 10e6, Metrics: map[string]float64{
			"region-solve-ns": 3.7e6, "assign-bytes": 192925, "solve-bytes": 82732,
		}},
	}}
	paths := map[string]string{
		"base.json": writeArtifact(t, dir, "base.json", art),
		"pr.json":   writeArtifact(t, dir, "pr.json", art),
	}
	args := strings.Fields(line)
	found := 0
	for i, a := range args {
		if p, ok := paths[a]; ok {
			args[i] = p
			found++
		}
	}
	if found != 2 {
		t.Fatalf("workflow command %q does not name base.json and pr.json", line)
	}
	var stdout, stderr strings.Builder
	if code := run(args, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("benchjson %s exited %d:\n%s%s", strings.Join(args, " "), code, stdout.String(), stderr.String())
	}
	for _, want := range []string{"| benchmark |", "| ClusterSolve/shards=2 |", "No regressions beyond the threshold."} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, stdout.String())
		}
	}
}
