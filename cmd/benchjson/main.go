// Command benchjson turns `go test -bench` text output into a stable JSON
// artifact and compares two such artifacts for regressions.
//
// Parse mode (default) reads benchmark output on stdin and writes JSON:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -o BENCH.json
//
// Compare mode diffs two artifacts, prints a Markdown delta table (fit for
// a GitHub Actions job summary), and exits non-zero when any benchmark
// present in both regressed in ns/op by more than -threshold percent:
//
//	benchjson -compare main.json pr.json -threshold 15
//
// Flags may come before, between or after the two paths.
//
// -gate-metrics widens the gate beyond ns/op to named b.ReportMetric units:
//
//	benchjson -compare main.json pr.json -gate-metrics region-solve-ns,assign-bytes
//
// A benchmark then also fails the gate when any listed metric, present in
// both artifacts, regressed (grew) by more than the threshold.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name without the "Benchmark" prefix and without
	// the trailing -GOMAXPROCS tag (which lands in Procs).
	Name  string `json:"name"`
	Procs int    `json:"procs,omitempty"`
	// Workers is the engine worker count encoded in a trailing "-wN" name
	// segment by the scaled engine benchmarks; 0 means the engine default.
	Workers    int     `json:"workers,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Secondary metrics (-benchmem and b.ReportMetric): B/op, allocs/op,
	// valuations/op, rounds, ... keyed by their unit string.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Artifact is the JSON document: environment stamp plus results.
type Artifact struct {
	Go         string      `json:"go"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the command behind main: it parses args, does the work and returns
// the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out       = fs.String("o", "", "write JSON artifact to this file (default stdout)")
		compare   = fs.Bool("compare", false, "compare two artifacts: benchjson -compare old.json new.json")
		threshold = fs.Float64("threshold", 15, "compare: fail on ns/op regressions above this percent")
		gate      = fs.String("gate-metrics", "", "compare: comma-separated metric units also gated at the threshold (e.g. region-solve-ns,assign-bytes)")
	)
	// The flag package stops at the first positional argument, so parse
	// again after each one: flags may then follow the paths as well.
	var paths []string
	for {
		if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
			return 0
		} else if err != nil {
			return 2
		}
		if fs.NArg() == 0 {
			break
		}
		paths = append(paths, fs.Arg(0))
		args = fs.Args()[1:]
	}

	if *compare {
		if len(paths) != 2 {
			fmt.Fprintln(stderr, "usage: benchjson -compare old.json new.json [-threshold pct] [-gate-metrics units]")
			return 1
		}
		var gates []string
		for _, g := range strings.Split(*gate, ",") {
			if g = strings.TrimSpace(g); g != "" {
				gates = append(gates, g)
			}
		}
		code, err := runCompare(stdout, paths[0], paths[1], *threshold, gates)
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		return code
	}

	art, err := Parse(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	w := stdout
	var f *os.File
	if *out != "" {
		if f, err = os.Create(*out); err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	err = enc.Encode(art)
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	return 0
}

// Parse reads `go test -bench` output and collects every result line.
// Non-benchmark lines (package headers, PASS/ok, warmup chatter) are
// ignored, so the whole `go test` stream can be piped through untouched.
func Parse(r io.Reader) (*Artifact, error) {
	art := &Artifact{Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if b, ok := parseLine(sc.Text()); ok {
			art.Benchmarks = append(art.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(art.Benchmarks, func(i, j int) bool {
		return art.Benchmarks[i].Name < art.Benchmarks[j].Name
	})
	return art, nil
}

func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Benchmark{}, false
	}
	b := Benchmark{Name: strings.TrimPrefix(f[0], "Benchmark"), Metrics: map[string]float64{}}
	// Split the -GOMAXPROCS tag the testing package appends.
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], procs
		}
	}
	// A trailing "/...-wN" segment is the engine worker count.
	if i := strings.LastIndex(b.Name, "-w"); i > 0 {
		if w, err := strconv.Atoi(b.Name[i+2:]); err == nil {
			b.Workers = w
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	// The rest is (value, unit) pairs.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		if f[i+1] == "ns/op" {
			b.NsPerOp = v
		} else {
			b.Metrics[f[i+1]] = v
		}
	}
	if b.NsPerOp == 0 && len(b.Metrics) == 0 {
		return Benchmark{}, false
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return b, true
}

func load(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &art, nil
}

// runCompare writes the Markdown delta report and returns the exit code:
// 0 when everything holds, 2 when a shared benchmark regressed beyond the
// threshold — in ns/op, or in any of the gated metric units.
func runCompare(w io.Writer, oldPath, newPath string, threshold float64, gates []string) (int, error) {
	oldArt, err := load(oldPath)
	if err != nil {
		return 0, err
	}
	newArt, err := load(newPath)
	if err != nil {
		return 0, err
	}
	oldBy := map[string]Benchmark{}
	for _, b := range oldArt.Benchmarks {
		oldBy[b.Name] = b
	}

	fmt.Fprintf(w, "### Benchmark comparison (threshold %.0f%% ns/op)\n\n", threshold)
	gateCol := ""
	if len(gates) > 0 {
		fmt.Fprintf(w, "Gated metrics: %s\n\n", strings.Join(gates, ", "))
		gateCol = " gated |"
	}
	fmt.Fprintf(w, "| benchmark | old ns/op | new ns/op | Δ ns/op | Δ allocs/op | routes/s | RSS MiB |%s\n", gateCol)
	if len(gates) > 0 {
		fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---:|")
	} else {
		fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|")
	}
	regressions := 0
	for _, nb := range newArt.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok || ob.NsPerOp == 0 {
			cell := ""
			if len(gates) > 0 {
				c, _ := fmtGateDeltas(nil, nb.Metrics, gates, threshold)
				cell = " " + c + " |"
			}
			fmt.Fprintf(w, "| %s | — | %s | new | | %s | %s |%s\n",
				nb.Name, fmtNs(nb.NsPerOp),
				fmtRateDelta(0, nb.Metrics["routes/s"]),
				fmtRSSDelta(0, nb.Metrics["rss-MiB"]), cell)
			continue
		}
		delta := (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp * 100
		regressed := delta > threshold
		mark := ""
		if regressed {
			mark = " ⚠️"
		}
		cell := ""
		if len(gates) > 0 {
			c, bad := fmtGateDeltas(ob.Metrics, nb.Metrics, gates, threshold)
			cell = " " + c + " |"
			regressed = regressed || bad
		}
		if regressed {
			regressions++
		}
		fmt.Fprintf(w, "| %s | %s | %s | %+.1f%%%s | %s | %s | %s |%s\n",
			nb.Name, fmtNs(ob.NsPerOp), fmtNs(nb.NsPerOp), delta, mark,
			fmtAllocDelta(ob.Metrics["allocs/op"], nb.Metrics["allocs/op"]),
			fmtRateDelta(ob.Metrics["routes/s"], nb.Metrics["routes/s"]),
			fmtRSSDelta(ob.Metrics["rss-MiB"], nb.Metrics["rss-MiB"]), cell)
	}
	fmt.Fprintln(w)
	if regressions > 0 {
		fmt.Fprintf(w, "**%d benchmark(s) regressed more than %.0f%%.**\n", regressions, threshold)
		return 2, nil
	}
	fmt.Fprintln(w, "No regressions beyond the threshold.")
	return 0, nil
}

// fmtGateDeltas renders the gated-metrics cell ("unit: old → new" per unit
// present in either artifact) and reports whether any unit present in both
// grew by more than the threshold. Units absent on one side never gate —
// a metric newly added (or dropped) by the PR has no baseline to regress
// against.
func fmtGateDeltas(oldM, newM map[string]float64, gates []string, threshold float64) (string, bool) {
	var parts []string
	bad := false
	for _, g := range gates {
		ov, nv := oldM[g], newM[g]
		switch {
		case ov == 0 && nv == 0:
			continue
		case ov == 0:
			parts = append(parts, fmt.Sprintf("%s: %.0f", g, nv))
		default:
			mark := ""
			if nv > ov*(1+threshold/100) {
				bad = true
				mark = " ⚠️"
			}
			parts = append(parts, fmt.Sprintf("%s: %.0f → %.0f%s", g, ov, nv, mark))
		}
	}
	return strings.Join(parts, "<br>"), bad
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

func fmtAllocDelta(oldA, newA float64) string {
	if oldA == 0 && newA == 0 {
		return ""
	}
	return fmt.Sprintf("%.0f → %.0f", oldA, newA)
}

// fmtRateDelta renders the routing-throughput column from the "routes/s"
// metric the routing-plane benchmarks report. Rates compress to k/M suffixes
// so the client-side path (tens of millions) and the HTTP path (thousands)
// share a readable column.
func fmtRateDelta(oldR, newR float64) string {
	switch {
	case oldR == 0 && newR == 0:
		return ""
	case oldR == 0:
		return fmtRate(newR)
	default:
		return fmtRate(oldR) + " → " + fmtRate(newR)
	}
}

func fmtRate(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.1fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk", r/1e3)
	default:
		return fmt.Sprintf("%.0f", r)
	}
}

// fmtRSSDelta renders the peak-memory trajectory column from the "rss-MiB"
// metric the oracle solve benchmarks report (process VmHWM, so the value is
// monotone within one bench run; absolute levels compare across artifacts).
func fmtRSSDelta(oldR, newR float64) string {
	switch {
	case oldR == 0 && newR == 0:
		return ""
	case oldR == 0:
		return fmt.Sprintf("%.0f", newR)
	default:
		return fmt.Sprintf("%.0f → %.0f", oldR, newR)
	}
}
