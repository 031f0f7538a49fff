// Package bench regenerates every table and figure of the paper's
// evaluation (Section 5): Figure 3 (OTC savings versus server capacity),
// Figure 4 (OTC savings versus read/write ratio), Table 1 (running time
// versus problem size) and Table 2 (savings on ten random instances), plus
// the three design ablations called out in DESIGN.md.
//
// The paper's full scale (M=3718 servers, N=25,000 objects, 1–2 million
// requests) is reproduced shape-faithfully at a configurable Scale: the
// default shrinks M and N by about 12x so a whole experiment runs in
// seconds to minutes on a laptop, and every driver accepts a larger scale
// to grow toward the original sizes.
package bench

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"
	"time"

	"repro"
	"repro/internal/stats"
)

// Config tunes an experiment run.
type Config struct {
	// Scale multiplies the paper's M and N (default 0.08).
	Scale float64
	// Seed drives every randomized component.
	Seed int64
	// Workers bounds solver fan-out; <= 0 selects GOMAXPROCS.
	Workers int
	// Sync forces AGT-RAM's synchronous full-rescan engine across every
	// experiment instead of the default incremental one (identical
	// results; only the work counts and wall time differ).
	Sync bool
	// Methods to run (default: all six, paper order).
	Methods []repro.Method
	// GRAGenerations overrides the GA budget (default 30).
	GRAGenerations int
	// RoundTimeout bounds per-agent reads/writes in the AGT-RAM wire
	// engines during the engine ablation; agents that miss it are evicted.
	RoundTimeout time.Duration
	// Faults injects deterministic faults into the AGT-RAM wire engines
	// during the engine ablation (nil = none).
	Faults *repro.FaultConfig
	// Progress, when non-nil, receives one line per completed run.
	Progress func(string)
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.08
	}
	if len(c.Methods) == 0 {
		c.Methods = repro.Methods()
	}
	if c.GRAGenerations == 0 {
		c.GRAGenerations = 30
	}
	return c
}

func (c Config) progress(format string, args ...interface{}) {
	if c.Progress != nil {
		c.Progress(fmt.Sprintf(format, args...))
	}
}

// scaled shrinks a paper dimension, keeping a usable floor.
func scaled(paper int, scale float64, floor int) int {
	v := int(float64(paper) * scale)
	if v < floor {
		return floor
	}
	return v
}

// requestsFor sizes the request volume like the paper: roughly 60 requests
// per object (25k objects saw 1.5M requests).
func requestsFor(objects int) int { return objects * 60 }

// Table is a rendered experiment: one row per sweep point, one column per
// method (plus optional extra columns).
type Table struct {
	Title    string
	RowLabel string // meaning of the row key
	Unit     string // meaning of the cell values
	Columns  []string
	Rows     []Row
}

// Row is one line of a Table.
type Row struct {
	Label  string
	Values []float64
}

// Value returns the cell under the named column (NaN-free; ok=false when
// the column does not exist).
func (t *Table) Value(rowIdx int, column string) (float64, bool) {
	for ci, c := range t.Columns {
		if c == column {
			return t.Rows[rowIdx].Values[ci], true
		}
	}
	return 0, false
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\n(%s by %s)\n", t.Title, t.Unit, t.RowLabel); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s", t.RowLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(tw, "\t%.2f", v)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// WriteCSV writes the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{t.RowLabel}, t.Columns...)); err != nil {
		return err
	}
	for _, r := range t.Rows {
		rec := make([]string, 0, len(r.Values)+1)
		rec = append(rec, r.Label)
		for _, v := range r.Values {
			rec = append(rec, strconv.FormatFloat(v, 'f', 4, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// methodColumns renders method names the way the paper labels them.
func methodColumns(methods []repro.Method) []string {
	out := make([]string, len(methods))
	for i, m := range methods {
		out[i] = repro.MethodLabel(m)
	}
	return out
}

// runAll solves one instance config with every configured method, building
// a fresh instance per method so no state leaks between runs. The Sync
// engine override only applies to AGT-RAM — engine selection is meaningless
// for the single-engine baselines and the facade now rejects it.
func runAll(ctx context.Context, cfg Config, icfg repro.InstanceConfig) (map[repro.Method]*repro.Result, error) {
	out := make(map[repro.Method]*repro.Result, len(cfg.Methods))
	for _, m := range cfg.Methods {
		inst, err := repro.NewInstance(icfg)
		if err != nil {
			return nil, fmt.Errorf("bench: building instance for %s: %w", m, err)
		}
		res, err := inst.SolveContext(ctx, m, &repro.Options{
			Workers:        cfg.Workers,
			Sync:           cfg.Sync && m == repro.AGTRAM,
			Seed:           stats.Mix64(cfg.Seed, int64(len(m))),
			GRAGenerations: cfg.GRAGenerations,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: solving with %s: %w", m, err)
		}
		out[m] = res
		cfg.progress("%s: savings %.2f%% in %s", repro.MethodLabel(m), res.SavingsPercent, res.Runtime.Round(time.Millisecond))
	}
	return out, nil
}
