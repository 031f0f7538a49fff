package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runAll runs every workload untraced and then traced, each in its own
// process so peak RSS and set-up belong to one workload, and prints every
// metric by name with its unit, the tracing overhead and the host record.
// It returns 1 when any run failed or failed an output check.
func runAll(seed int64, seconds int) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("locate own binary: %v", err)
	}
	status := 0
	fmt.Printf("%-14s %-26s %16s  %-6s %s\n", "workload", "metric", "value", "unit", "from")
	for _, w := range workloadNames() {
		var runs [2]*detail
		for traced := 0; traced < 2; traced++ {
			d, res, err := child(exe, w, seed, seconds, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s trace=%d: %v\n", w, traced, err)
				status = 1
				continue
			}
			if !res.Correct || res.Failed > 0 {
				status = 1
			}
			runs[traced] = d
			fmt.Printf("%-14s %-26s %16d  %-6s %s\n", w, "attempted", res.Attempted, "count", label(traced))
			fmt.Printf("%-14s %-26s %16d  %-6s %s\n", w, "failed", res.Failed, "count", label(traced))
			set := d.EndToEnd
			if traced == 1 {
				set = d.PerLayer
			}
			for _, name := range sortedKeys(set) {
				fmt.Printf("%-14s %-26s %16.4f  %-6s %s\n", w, name, set[name].Value, set[name].Unit, label(traced))
			}
			if traced == 1 {
				for _, name := range sortedKeys(d.Layers) {
					l := d.Layers[name]
					fmt.Printf("%-14s %-26s %16.4f  %-6s span self time, %d spans, %.4f ms total mean\n",
						w, "span."+name, l.SelfMs, "ms", l.Count, l.MeanMs)
				}
			}
			fmt.Printf("%-14s %-26s %16s  %-6s nproc=%d gomaxprocs=%d steal=%d idle=%d jiffies\n",
				w, "host", d.Host.GoVersion, "", d.Host.NumCPU, d.Host.GOMAXPROCS, d.Host.StealJiffy, d.Host.IdleJiffy)
		}
		if runs[0] != nil && runs[1] != nil {
			for _, name := range []string{"solve_p50_ms", "ops_per_s"} {
				u, t := runs[0].EndToEnd[name], runs[1].EndToEnd[name]
				fmt.Printf("%-14s %-26s %16.4f  %-6s traced minus untraced (%+.1f%%)\n",
					w, "trace_overhead."+name, t.Value-u.Value, u.Unit, 100*(t.Value-u.Value)/u.Value)
			}
		}
	}
	return status
}

func label(traced int) string {
	if traced == 1 {
		return "traced run"
	}
	return "untraced run"
}

// child runs one workload in a fresh process and returns its detail line
// and its contract line.
func child(exe, w string, seed int64, seconds, traced int) (*detail, *result, error) {
	cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	var d *detail
	for _, line := range strings.Split(stderr.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "perfbench-detail "); ok {
			d = new(detail)
			if err := json.Unmarshal([]byte(rest), d); err != nil {
				return nil, nil, fmt.Errorf("decode detail line: %w", err)
			}
		} else if line != "" {
			fmt.Fprintln(os.Stderr, line)
		}
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("no result line (%v): %w", runErr, err)
	}
	if d == nil {
		return nil, nil, fmt.Errorf("no detail line (%v)", runErr)
	}
	return d, &res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
