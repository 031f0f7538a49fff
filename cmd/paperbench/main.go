// Command paperbench regenerates every table and figure of the paper's
// evaluation section, plus the repository's design ablations.
//
// Usage:
//
//	paperbench [flags] fig3|fig4|table1|table2|update-ratio|regions|adaptive|scenarios|multiseed|optgap|ablations|all
//
// Flags:
//
//	-scale f    fraction of the paper's problem sizes (default 0.08)
//	-seed n     experiment seed (default 42)
//	-workers n  parallel workers (0 = GOMAXPROCS)
//	-sync       force AGT-RAM's synchronous full-rescan engine instead of
//	            the default event-driven incremental one (identical
//	            results, more valuation work — see ablation-engine)
//	-csv dir    also write each result as CSV into dir
//	-chart      also render each result as an ASCII chart
//	-quiet      suppress per-run progress lines
//
// The ablation-engine wire rows (frames-netpipe, frames-tcp) additionally
// honour -round-timeout, -fault-drop, -fault-delay and -fault-seed,
// measuring the mechanism's graceful degradation under an imperfect
// network (evicted agents are reported per row).
//
// The paper's full sizes (M=3718, N=25000) correspond to -scale 1; the
// default scale reproduces every shape in minutes on a laptop.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/bench"
)

type experiment struct {
	name string
	run  func(context.Context, bench.Config) (*bench.Table, error)
}

var experiments = []experiment{
	{"fig3", bench.Figure3},
	{"fig4", bench.Figure4},
	{"table1", bench.Table1},
	{"table2", bench.Table2},
	{"update-ratio", bench.UpdateRatio},
	{"regions", bench.Regions},
	{"adaptive", bench.Adaptive},
	{"scenarios", bench.Scenarios},
	{"multiseed", func(ctx context.Context, cfg bench.Config) (*bench.Table, error) {
		return bench.MultiSeed(ctx, cfg, 10)
	}},
	{"optgap", func(ctx context.Context, cfg bench.Config) (*bench.Table, error) {
		return bench.OptimalityGap(ctx, cfg, 12)
	}},
	{"ablation-payment", bench.AblationPayment},
	{"ablation-valuation", bench.AblationValuation},
	{"ablation-engine", bench.AblationEngine},
	{"ablation-oracle", bench.AblationOracle},
}

func main() {
	var (
		scale   = flag.Float64("scale", 0.08, "fraction of the paper's problem sizes")
		seed    = flag.Int64("seed", 42, "experiment seed")
		workers = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		sync    = flag.Bool("sync", false, "force AGT-RAM's synchronous full-rescan engine (default: incremental)")
		csvDir  = flag.String("csv", "", "directory to write CSV copies into")
		chart   = flag.Bool("chart", false, "also render each result as an ASCII chart")
		quiet   = flag.Bool("quiet", false, "suppress progress output")
		timeout = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")

		roundTimeout = flag.Duration("round-timeout", 0, "ablation-engine wire rows: per-agent deadline; slow agents are evicted (0 = none)")
		faultDrop    = flag.Float64("fault-drop", 0, "ablation-engine wire rows: per-write link-sever probability, in [0,1]")
		faultDelay   = flag.Duration("fault-delay", 0, "ablation-engine wire rows: delay injected before every agent write")
		faultSeed    = flag.Int64("fault-seed", 1, "seed for the injected fault schedule")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: paperbench [flags] fig3|fig4|table1|table2|update-ratio|regions|adaptive|scenarios|multiseed|optgap|ablations|all")
		os.Exit(2)
	}
	target := flag.Arg(0)

	if *faultDrop < 0 || *faultDrop > 1 {
		fmt.Fprintf(os.Stderr, "paperbench: -fault-drop %v outside [0,1]\n", *faultDrop)
		os.Exit(2)
	}
	cfg := bench.Config{Scale: *scale, Seed: *seed, Workers: *workers, Sync: *sync, RoundTimeout: *roundTimeout}
	if *faultDrop > 0 || *faultDelay > 0 {
		cfg.Faults = &repro.FaultConfig{Seed: *faultSeed, DropAll: *faultDrop, DelayAll: *faultDelay}
	}
	if !*quiet {
		cfg.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  "+line) }
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	selected := pick(target)
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "paperbench: unknown target %q\n", target)
		os.Exit(2)
	}
	for _, e := range selected {
		fmt.Fprintf(os.Stderr, "== %s (scale %.3f, seed %d)\n", e.name, *scale, *seed)
		table, err := e.run(ctx, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		if err := table.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		if *chart {
			fmt.Println()
			if err := table.RenderChart(os.Stdout, 64, 16); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
				os.Exit(1)
			}
		}
		fmt.Println()
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.name, table); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
				os.Exit(1)
			}
		}
	}
}

func pick(target string) []experiment {
	switch target {
	case "all":
		return experiments
	case "ablations":
		var out []experiment
		for _, e := range experiments {
			if strings.HasPrefix(e.name, "ablation-") {
				out = append(out, e)
			}
		}
		return out
	default:
		for _, e := range experiments {
			if e.name == target {
				return []experiment{e}
			}
		}
		return nil
	}
}

func writeCSV(dir, name string, t *bench.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}
